// Command perfbench is the repository benchmark: it runs one workload
// against the engine as users run it (core.Engine.Run in process, or the
// aqpd stack over loopback), checks every answer against the ground
// truth, and prints one JSON result line.
//
//	perfbench --workload trace-mix --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the workload
// with benchmark-owned spans and a per-query layer replay and reports the
// per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Fixed run parameters.
const (
	// setup_s is the median of at least minSetups set-ups, repeated until
	// setupBudget has been spent (at most maxSetups).
	minSetups    = 3
	maxSetups    = 100
	setupBudget  = time.Second
	minSamples   = 400 // closed loops run on until this many queries completed
	minTraced    = 200 // the same for each half of a traced run
	accuracySeed = 7   // seed of the fixed accuracy/warmup prefix
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: trace-mix, scan-closed or serve-cached")
		seed    = flag.Uint64("seed", 1, "workload seed: draws the query stream and arrivals")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		spans   = flag.String("spans", "", "traced runs write their spans here (default .bench_build/spans-<workload>-<seed>.json)")
	)
	flag.Parse()
	sp, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *spans == "" {
		*spans = fmt.Sprintf(".bench_build/spans-%s-%d.json", sp.name, *seed)
	}
	b := &bench{sp: sp, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, spansPath: *spans, workers: runtime.NumCPU()}
	res, err := b.run()
	env, _ := json.Marshal(b.env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "env %s\nperfbench: %v\n", env, err)
		os.Exit(1)
	}
	fmt.Printf("env %s\n", env)
	names := make([]string, 0, len(b.shown))
	for k := range b.shown {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %14.6g %s\n", k, b.shown[k].Value, b.shown[k].Unit)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// bench is one run of one workload.
type bench struct {
	sp        spec
	seed      uint64
	dur       time.Duration
	traced    bool
	spansPath string
	workers   int

	sys      *system
	setups   []setupTimes
	accuracy []record
	timed    []record
	warm     []record   // serve-cached: one pass of the pool over the transports
	served   *servedRun // serve-cached: transport state and reference answers
	failed   int
	cov      coverage

	began time.Time
	env   map[string]any
	shown map[string]metric // printed before the result line
}

// logf reports progress on stderr with the time since the run began.
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.2fs %s\n", time.Since(b.began).Seconds(), fmt.Sprintf(format, args...))
}

func (b *bench) run() (*result, error) {
	b.began = time.Now()
	b.env = environment(b)
	data := genSessions(b.sp.rows)
	setupStart := time.Now()
	for {
		sys, t, err := setup(b.sp, data, b.workers, b.traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		b.setups = append(b.setups, t)
		n := len(b.setups)
		if n >= maxSetups || (n >= minSetups && time.Since(setupStart) >= setupBudget) {
			b.sys = sys
			break
		}
		sys.close()
	}
	defer func() {
		if b.sys != nil {
			b.sys.close()
		}
	}()
	b.logf("set up %d times", len(b.setups))
	b.env["table_logical_mb"] = mib(data.SizeBytes())
	b.env["sample_logical_mb"] = mib(data.SizeBytes()) * float64(b.sp.sampleRows) / float64(b.sp.rows)
	var rep *replayer
	if b.traced {
		rep = newReplayer(b.sp, data, b.workers)
	}
	if b.sp.compressed {
		data = nil // the engine holds its own compressed copy
	}

	var (
		finish func() (map[string]metric, error)
		err    error
	)
	if b.sp.served {
		finish, err = b.runServed(rep)
	} else {
		finish, err = b.runInProcess(rep)
	}
	if err != nil {
		return nil, err
	}
	rep = nil
	b.logf("measured")
	heap := liveHeapMiB()
	b.env["cache_resident_mb"] = mib(b.sys.eng.CacheStatsSnapshot(0).Block.Bytes)
	b.env["heap_mb"] = heap

	if err := b.check(); err != nil {
		return nil, err
	}
	b.logf("checked against the ground truth")
	lm, err := finish()
	if err != nil {
		return nil, err
	}
	b.env["intervals"] = b.cov.intervals
	if b.sp.served {
		// Wrong or failed served answers were already marked by send.
		for _, recs := range [][]record{b.warm, b.timed} {
			for _, r := range recs {
				if r.out.failed {
					b.failed++
				}
			}
		}
	}
	attempted := len(b.accuracy) + len(b.warm) + len(b.timed)
	res := &result{Correct: b.failed == 0, Attempted: attempted, Failed: b.failed}
	b.shown = map[string]metric{
		"failed_frac":  {float64(b.failed) / float64(attempted), "fraction"},
		"ci_miss_frac": {b.cov.missFrac(), "fraction"},
	}
	if b.traced {
		res.Metrics = lm
		lm["estimator.rel_halfwidth_p50"] = metric{median0(b.cov.relHalf), "fraction"}
		lm["estimator.ci_miss_frac"] = b.shown["ci_miss_frac"]
		var reg, bs []float64
		for _, t := range b.setups {
			reg = append(reg, ms(t.register))
			bs = append(bs, ms(t.buildSamples))
		}
		lm["core.register_ms"] = metric{median(reg), "ms"}
		lm["core.build_samples_ms"] = metric{median(bs), "ms"}
	} else {
		var tot []float64
		for _, t := range b.setups {
			tot = append(tot, t.total.Seconds())
		}
		lm["setup_s"] = metric{median(tot), "s"}
		lm["heap_mb"] = metric{heap, "MiB"}
		// The p95 is printed but not in the result: on serve-cached it
		// swings with the machine's load too much to gate (see README.md).
		b.shown["latency_p95_ms"] = lm["latency_p95_ms"]
		delete(lm, "latency_p95_ms")
		res.Metrics = lm
	}
	for k, v := range res.Metrics {
		b.shown[k] = v
		res.Metrics[k] = metric{finite(v.Value), v.Unit}
	}
	if b.traced {
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", b.spansPath)
	}
	return res, nil
}

// check compares the answers with the ground truth: exact aggregates must
// equal it, and the accuracy set's approximate intervals are scored for
// ci_miss_frac. Failing records are marked so they miss every latency
// limit.
func (b *bench) check() error {
	var texts []string
	need := func(r record) bool { return r.ans != nil && hasExact(r.ans) }
	for _, r := range b.accuracy {
		texts = append(texts, r.text)
	}
	for _, r := range b.timed {
		if need(r) {
			texts = append(texts, r.text)
		}
	}
	if b.served != nil {
		for _, ref := range b.served.refs {
			if hasExact(ref) {
				texts = append(texts, ref.SQL)
			}
		}
	}
	truth, err := groundTruth(b.sp, texts, b.workers)
	if err != nil {
		return err
	}
	mark := func(recs []record, score bool) {
		for i := range recs {
			r := &recs[i]
			if r.err != nil || r.ans == nil {
				r.out.failed = true
				b.failed++
				continue
			}
			if t := truth[r.text]; t != nil {
				if err := checkExact(r.ans, t); err != nil {
					fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", err)
					r.out.failed = true
					b.failed++
					continue
				}
				if score {
					b.cov.add(r.ans, t)
				}
			}
		}
	}
	mark(b.accuracy, true)
	if !b.sp.served {
		mark(b.timed, false)
		return nil
	}
	// Served answers matched the in-process reference text; the references'
	// exact aggregates must match the truth.
	for _, ref := range b.served.refs {
		if t := truth[ref.SQL]; t != nil {
			if err := checkExact(ref, t); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", err)
				b.failed++
			}
		}
	}
	return nil
}

func hasExact(ans *core.Answer) bool {
	for _, g := range ans.Groups {
		for _, a := range g.Aggs {
			if a.Exact {
				return true
			}
		}
	}
	return false
}

// streams returns the fixed, seeded accuracy prefix of an in-process
// workload's stream and the timed stream, which is drawn from --seed and
// never repeats a prefix text.
func (b *bench) streams() (prefix []string, timed *distinct) {
	prefix = take(b.sp.newStream(accuracySeed), b.sp.accuracyN)
	timed = b.sp.newStream(b.seed)
	timed.exclude(prefix)
	return prefix, timed
}

// runInProcess drives Engine.Run with two closed-loop callers. The
// returned finish computes the metrics once the answers are checked.
func (b *bench) runInProcess(rep *replayer) (func() (map[string]metric, error), error) {
	eng := b.sys.eng
	prefix, stream := b.streams()
	next := func() (string, bool) { return stream.next(), true }
	b.accuracy, _ = closedLoop(eng, listNext(prefix), 2, time.Hour, time.Hour, 0, nil)
	b.logf("accuracy pass: %d queries", len(b.accuracy))

	if !b.traced {
		recs, elapsed := closedLoop(eng, next, 2, b.dur, 3*b.dur, minSamples, nil)
		b.timed = recs
		b.env["queries_timed"] = len(recs)
		return func() (map[string]metric, error) {
			p50, p95, err := latencySummary(outcomes(b.timed))
			if err != nil {
				return nil, err
			}
			qps := float64(succeeded(b.timed)) / elapsed.Seconds()
			return map[string]metric{
				"latency_p50_ms": {p50, "ms"},
				"latency_p95_ms": {p95, "ms"},
				"throughput_qps": {qps, "queries/s"},
				// A closed loop runs at the highest rate its callers sustain.
				"max_rate_qps": {qps, "queries/s"},
			}, nil
		}, nil
	}

	half := b.dur / 2
	rt0 := readRuntime()
	untraced, _ := closedLoop(eng, next, 2, half, 3*half, minTraced, nil)
	rt1 := readRuntime()
	rec := &recorder{}
	var (
		rs   []replayStats
		rsMu sync.Mutex
	)
	cache0 := eng.CacheStatsSnapshot(0)
	traced, _ := closedLoop(eng, next, 2, half, 3*half, minTraced, func(r *record) {
		root := rec.add(r.qid, 0, "query", r.out.due, r.out.done)
		rec.add(r.qid, root, "core.run", r.out.due, r.out.done)
		if r.err != nil {
			return
		}
		st, err := rep.replay(rec, r.qid, root, r.text, r.ans)
		if err != nil {
			r.err, r.out.failed = err, true
			return
		}
		rsMu.Lock()
		rs = append(rs, st)
		rsMu.Unlock()
	})
	cache1 := eng.CacheStatsSnapshot(0)
	b.timed = append(untraced, traced...)
	if err := rec.write(b.spansPath); err != nil {
		return nil, err
	}
	lm := layerMetrics(rec.snapshot(), answersOf(traced), rs, len(traced))
	p50u, _ := percentile(latencies(untraced), 0.5)
	p50t, _ := percentile(latencies(traced), 0.5)
	lm["trace.overhead_frac"] = metric{p50t/p50u - 1, "fraction"}
	addRuntime(lm, rt0, rt1, len(untraced))
	addCache(lm, cache0, cache1, answersOf(traced))
	// The in-process workloads have no writer, generator or transports.
	for _, k := range []string{"core.refresh_ms", "loadgen.late_p95_ms", "serve.submit_ms",
		"serve.overhead_ms", "wire.roundtrip_ms", "wire.overhead_ms", "http.roundtrip_ms", "http.overhead_ms"} {
		lm[k] = metric{0, "ms"}
	}
	var runs []float64
	for _, r := range traced {
		runs = append(runs, ms(r.out.done.Sub(r.out.due)))
	}
	addRunPercentiles(lm, runs)
	return func() (map[string]metric, error) { return lm, nil }, nil
}

func outcomes(recs []record) []outcome {
	out := make([]outcome, len(recs))
	for i, r := range recs {
		out[i] = r.out
	}
	return out
}

func latencies(recs []record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.out.latencyMs()
	}
	return out
}

func succeeded(recs []record) int {
	n := 0
	for _, r := range recs {
		if !r.out.failed {
			n++
		}
	}
	return n
}

func answersOf(recs []record) []*core.Answer {
	var out []*core.Answer
	for _, r := range recs {
		if r.ans != nil {
			out = append(out, r.ans)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
func mib(bytes int64) float64    { return float64(bytes) / (1 << 20) }
func perQuery(d time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return d / time.Duration(n)
}

// layerMetrics turns the traced spans and answers into per-layer metrics.
// Layer times are the layer's total self time divided by the traced
// queries (zero where a layer did not run), so layer shares add up to the
// per-query total.
func layerMetrics(spans []span, answers []*core.Answer, rs []replayStats, n int) map[string]metric {
	tot := layerTotals(spans)
	per := func(name string) time.Duration { return perQuery(tot[name], n) }
	lm := map[string]metric{
		"sql.parse_us":             {us(per("sql.parse")), "us"},
		"plan.analyze_us":          {us(per("plan.analyze")), "us"},
		"plan.build_us":            {us(per("plan.build")), "us"},
		"exec.sample_scan_ms":      {ms(per("exec.sample_scan")), "ms"},
		"exec.exact_scan_ms":       {ms(per("exec.exact_scan")), "ms"},
		"kernel.bootstrap_ms":      {ms(per("kernel.bootstrap")), "ms"},
		"estimator.closed_form_us": {us(per("estimator.closed_form")), "us"},
		"diagnostic.run_ms":        {ms(per("diagnostic.run")), "ms"},
		"serve.encode_us":          {us(per("serve.encode")), "us"},
	}
	var rows, skipped, blocks int64
	var diagnosed, rejected int
	var wasted time.Duration
	for _, s := range rs {
		rows += s.rowsScanned
		skipped += s.blocksSkipped
		blocks += s.blocks
		diagnosed += s.diagnosed
		rejected += s.rejected
		wasted += s.wasted
	}
	lm["exec.rows_scanned"] = metric{float64(rows) / float64(max(len(rs), 1)), "rows"}
	lm["exec.blocks_skipped_frac"] = metric{ratio(float64(skipped), float64(blocks)), "fraction"}
	lm["diagnostic.reject_frac"] = metric{ratio(float64(rejected), float64(diagnosed)), "fraction"}
	lm["core.wasted_ms"] = metric{ms(perQuery(wasted, n)), "ms"}

	var decoded, decodeNs, resamples float64
	var aggs, fellBack float64
	for _, a := range answers {
		decoded += float64(a.Counters.BlocksDecoded)
		decodeNs += float64(a.Counters.DecodeNanos)
		resamples += float64(a.BootstrapKUsed)
		for _, g := range a.Groups {
			for _, x := range g.Aggs {
				aggs++
				if x.Exact && !x.DiagnosticOK {
					fellBack++
				}
			}
		}
	}
	na := float64(max(len(answers), 1))
	lm["table.blocks_decoded"] = metric{decoded / na, "blocks"}
	lm["table.decode_ms"] = metric{decodeNs / na / 1e6, "ms"}
	lm["kernel.resamples"] = metric{resamples / na, "count"}
	lm["core.fallback_frac"] = metric{ratio(fellBack, aggs), "fraction"}
	return lm
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addRunPercentiles reports the engine-side query time distribution.
func addRunPercentiles(lm map[string]metric, runs []float64) {
	p50, _ := percentile(runs, 0.5)
	p95, _ := percentile(runs, 0.95)
	lm["core.run_p50_ms"] = metric{p50, "ms"}
	lm["core.run_p95_ms"] = metric{p95, "ms"}
	lm["core.run_mean_ms"] = metric{mean(runs), "ms"}
}

// addCache reports the answer and block cache layers over a traced phase.
func addCache(lm map[string]metric, before, after core.CacheStats, answers []*core.Answer) {
	var cached, hits, decoded float64
	for _, a := range answers {
		if a.Cached {
			cached++
		}
		hits += float64(a.Counters.CacheHits)
		decoded += float64(a.Counters.BlocksDecoded)
	}
	lm["cache.answer_hit_frac"] = metric{ratio(cached, float64(len(answers))), "fraction"}
	lm["cache.block_hit_frac"] = metric{ratio(hits, hits+decoded), "fraction"}
	lm["cache.evictions"] = metric{float64(after.Block.Evictions - before.Block.Evictions), "count"}
	lm["cache.resident_mb"] = metric{mib(after.Block.Bytes), "MiB"}
}

// runtimeSample is a reading of the Go runtime's allocation and CPU
// counters.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2)}
}

// addRuntime reports allocation per query and GC's CPU share over an
// untraced phase of n queries.
func addRuntime(lm map[string]metric, a, b runtimeSample, n int) {
	lm["runtime.alloc_kb_per_query"] = metric{(b.allocBytes - a.allocBytes) / 1024 / float64(max(n, 1)), "KiB"}
	lm["runtime.gc_cpu_frac"] = metric{ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU), "fraction"}
}

// liveHeapMiB is the live heap after a forced collection.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return mib(int64(m.HeapAlloc))
}

// environment records what a result depends on.
func environment(b *bench) map[string]any {
	env := map[string]any{
		"workload":    b.sp.name,
		"seed":        b.seed,
		"seconds":     b.dur.Seconds(),
		"traced":      b.traced,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"commit":      commit(),
		"workers":     b.workers,
		"rows":        b.sp.rows,
		"sample_rows": b.sp.sampleRows,
		"backing":     "raw",
		"cache_mb":    mib(b.sp.cacheBytes),
		"data_seed":   dataSeed,
		"engine_seed": engineSeed,
		"accuracy_n":  b.sp.accuracyN,
	}
	if b.sp.compressed {
		env["backing"] = "compressed"
	}
	if b.sp.served {
		env["rate_ladder_qps"] = rateLadder
		env["latency_limit_ms"] = latencyLimitMs
		env["late_bound_ms"] = lateBoundMs
		env["refresh_every"] = refreshEvery
	}
	return env
}

// commit identifies the code under test: the VCS revision the Go toolchain
// stamped into the binary, or "unknown" outside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
