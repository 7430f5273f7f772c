package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// serve-cached load parameters. The rates are absolute; they sit at about
// 25%, 50% and 80% of the capacity measured on the first baseline (see
// README.md), and latency metrics are reported at the middle rate.
const (
	servePoolSize = 200
	// zipfS skews draws from the pool: rank 1 is the most popular text.
	zipfS = 1.1
	// refreshEvery: within each rate, the writer re-runs BuildSamples when
	// the first query comes due and every refreshEvery queries after it,
	// bumping the catalog generation and so invalidating the answer cache.
	// The deck of one epoch holds every pool text, so each epoch misses
	// on all 200 texts: 2% of its queries, beyond the p95.
	refreshEvery = 10000
	// latencyLimitMs is the p95 limit a rate must meet to count as
	// sustained.
	latencyLimitMs = 250.0
	// lateBoundMs: a rate whose generator sent its p95 query later than
	// this after its due time is invalid and not reported.
	lateBoundMs = 50.0
)

var rateLadder = []float64{300, 600, 900}

// rung is one fixed offered rate's outcome.
type rung struct {
	rate      float64
	recs      []record
	achieved  float64 // successful completions per second
	latep95   float64 // ms
	valid, ok bool    // generator on time; p95 within the limit
}

// zipfDeck is one refresh epoch's texts: each pool text appears its
// Zipf(zipfS) share of refreshEvery times (largest remainders rounded up),
// so every epoch misses the answer cache on the same set of texts and only
// the order, shuffled per epoch, depends on the seed.
func zipfDeck(pool []string) []string {
	w := make([]float64, len(pool))
	sum := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -zipfS)
		sum += w[k]
	}
	type rem struct {
		k int
		r float64
	}
	var deck []string
	var rems []rem
	for k, x := range w {
		exact := x / sum * refreshEvery
		n := int(exact)
		for i := 0; i < n; i++ {
			deck = append(deck, pool[k])
		}
		rems = append(rems, rem{k, exact - float64(n)})
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].r > rems[j].r })
	for i := 0; len(deck) < refreshEvery; i++ {
		deck = append(deck, pool[rems[i].k])
	}
	return deck
}

// arrivals draws Poisson arrivals at rate for dur from start. The texts
// come from successive refresh epochs, each the deck in a fresh seeded
// order, and each epoch's first query carries a refresh.
func arrivals(src *rng.Source, deck []string, rate float64, dur time.Duration, start time.Time) []arrival {
	var order []string
	var out []arrival
	t := 0.0
	for {
		t += src.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		if len(order) == 0 {
			order = append([]string(nil), deck...)
			src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		out = append(out, arrival{
			due:     start.Add(time.Duration(t * float64(time.Second))),
			text:    order[0],
			refresh: len(order) == len(deck),
		})
		order = order[1:]
	}
}

// runRung offers one rate for dur.
func (s *servedRun) runRung(src *rng.Source, deck []string, rate float64, dur time.Duration, sampleRows int) rung {
	arr := arrivals(src, deck, rate, dur, time.Now().Add(20*time.Millisecond))
	recs := s.openLoop(arr, sampleRows)
	r := rung{rate: rate, recs: recs}
	var late []float64
	for _, x := range recs {
		late = append(late, ms(x.late))
	}
	r.latep95, _ = percentile(late, 0.95)
	r.valid = r.latep95 <= lateBoundMs
	r.ok = r.valid && meetsLimit(outcomes(recs), latencyLimitMs)
	r.achieved = completionRate(outcomes(recs))
	return r
}

// runServed drives the aqpd stack: an in-process accuracy pass over the
// whole pool (filling the answer cache), one warm-up pass of the pool over
// the two connections, then the rate ladder — or, traced, the middle rate
// untraced and then traced.
func (b *bench) runServed(rep *replayer) (func() (map[string]metric, error), error) {
	eng := b.sys.eng
	pool := servePool(servePoolSize)
	b.accuracy, _ = closedLoop(eng, listNext(pool), 2, time.Hour, time.Hour, 0, nil)
	b.logf("accuracy pass: %d queries", len(b.accuracy))

	clients, err := dialClients(b.sys)
	if err != nil {
		return nil, err
	}
	defer closeClients(clients)
	s := &servedRun{sys: b.sys, clients: clients, refs: map[string]*core.Answer{}}
	now := time.Now()
	warm := make([]arrival, len(pool))
	for i, t := range pool {
		warm[i] = arrival{due: now, text: t}
	}
	b.warm = s.openLoop(warm, b.sp.sampleRows)
	b.served = s

	src := rng.New(b.seed)
	deck := zipfDeck(pool)
	if !b.traced {
		// The middle rate, which the latency metrics report, runs for 60%
		// of the time; the others 20% each.
		var rungs []rung
		for i, rate := range rateLadder {
			d := b.dur / 5
			if i == len(rateLadder)/2 {
				d = b.dur * 3 / 5
			}
			rungs = append(rungs, s.runRung(src, deck, rate, d, b.sp.sampleRows))
		}
		for _, r := range rungs {
			b.timed = append(b.timed, r.recs...)
		}
		b.env["refreshes"] = len(s.refreshes)
		b.env["verified_transport_answers"] = s.verified.Load()
		return func() (map[string]metric, error) {
			var report []map[string]any
			maxRate := 0.0
			for _, r := range rungs {
				p50, p95, _, _ := windowSummary(outcomes(r.recs))
				report = append(report, map[string]any{"rate_qps": r.rate, "queries": len(r.recs),
					"p50_ms": finite(p50), "p95_ms": finite(p95), "late_p95_ms": r.latep95,
					"valid": r.valid, "meets_limit": r.ok, "achieved_qps": r.achieved})
				if r.ok {
					maxRate = r.achieved
				}
			}
			b.env["rungs"] = report
			mid := rungs[len(rungs)/2]
			if !mid.valid {
				return nil, fmt.Errorf("middle rate %.0f/s invalid: generator p95 late %.2f ms > %.0f ms",
					mid.rate, mid.latep95, lateBoundMs)
			}
			p50, p95, qps, err := windowSummary(outcomes(mid.recs))
			if err != nil {
				return nil, err
			}
			return map[string]metric{
				"latency_p50_ms": {p50, "ms"},
				"latency_p95_ms": {p95, "ms"},
				"throughput_qps": {qps, "queries/s"},
				"max_rate_qps":   {maxRate, "queries/s"},
			}, nil
		}, nil
	}

	mid := rateLadder[len(rateLadder)/2]
	half := b.dur / 2
	rt0 := readRuntime()
	untraced := s.runRung(src, deck, mid, half, b.sp.sampleRows)
	rt1 := readRuntime()
	rec := &recorder{}
	s.rec = rec
	b.sys.probe.on.Store(true)
	cache0 := eng.CacheStatsSnapshot(0)
	refreshed := len(s.refreshes)
	traced := s.runRung(src, deck, mid, half, b.sp.sampleRows)
	cache1 := eng.CacheStatsSnapshot(0)
	b.sys.probe.on.Store(false)
	b.timed = append(append(b.timed, untraced.recs...), traced.recs...)

	// Replay after the traced rate, so replays never overlap served
	// queries. Only wire queries expose the server-side answer; the layer
	// metrics are per wire query, and only answer-cache misses did
	// pipeline work to replay.
	var wireRecs []record
	var rs []replayStats
	var submit, overhead, httpRT, httpOver, wireRT, wireOver []float64
	roots := map[int]span{}
	kids := map[int][]span{}
	for _, sp := range rec.snapshot() {
		if sp.Name == "query" {
			roots[sp.Query] = sp
		} else {
			kids[sp.Query] = append(kids[sp.Query], sp)
		}
	}
	for _, r := range traced.recs {
		if r.err != nil {
			continue
		}
		var trip, server time.Duration
		for _, k := range kids[r.qid] {
			switch k.Name {
			case "wire.roundtrip", "http.roundtrip":
				trip = k.dur()
			case "serve.submit", "http.handler":
				server = k.dur()
			}
		}
		if r.transport == "http" {
			httpRT = append(httpRT, ms(trip))
			httpOver = append(httpOver, ms(trip-server))
			continue
		}
		wireRT = append(wireRT, ms(trip))
		wireOver = append(wireOver, ms(trip-server))
		if r.ans == nil {
			continue
		}
		submit = append(submit, ms(server))
		overhead = append(overhead, ms(server-r.ans.Elapsed))
		wireRecs = append(wireRecs, r)
		if !r.ans.Cached {
			st, err := rep.replay(rec, r.qid, roots[r.qid].ID, r.text, r.ans)
			if err != nil {
				return nil, fmt.Errorf("replay of %q: %w", r.text, err)
			}
			rs = append(rs, st)
		}
	}
	if err := rec.write(b.spansPath); err != nil {
		return nil, err
	}
	lm := layerMetrics(rec.snapshot(), answersOf(wireRecs), rs, len(wireRecs))
	p50u, _ := percentile(latencies(untraced.recs), 0.5)
	p50t, _ := percentile(latencies(traced.recs), 0.5)
	lm["trace.overhead_frac"] = metric{p50t/p50u - 1, "fraction"}
	addRuntime(lm, rt0, rt1, len(untraced.recs))
	addCache(lm, cache0, cache1, answersOf(wireRecs))
	var refresh []float64
	for _, d := range s.refreshes[refreshed:] {
		refresh = append(refresh, ms(d))
	}
	lm["core.refresh_ms"] = metric{median0(refresh), "ms"}
	lm["loadgen.late_p95_ms"] = metric{traced.latep95, "ms"}
	lm["serve.submit_ms"] = metric{median0(submit), "ms"}
	lm["serve.overhead_ms"] = metric{median0(overhead), "ms"}
	lm["wire.roundtrip_ms"] = metric{median0(wireRT), "ms"}
	lm["wire.overhead_ms"] = metric{median0(wireOver), "ms"}
	lm["http.roundtrip_ms"] = metric{median0(httpRT), "ms"}
	lm["http.overhead_ms"] = metric{median0(httpOver), "ms"}
	var runs []float64
	for _, r := range wireRecs {
		runs = append(runs, ms(r.ans.Elapsed))
	}
	addRunPercentiles(lm, runs)
	return func() (map[string]metric, error) { return lm, nil }, nil
}

// median0 is the median, or zero for no samples.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
