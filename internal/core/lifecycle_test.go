package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/history"
	"repro/internal/watchdog"
)

// lifecycleRig is an engine with every per-query observer attached: the
// tracer's ring, the event log, the history store and a watchdog that
// audits every query it observes.
type lifecycleRig struct {
	t    *testing.T
	e    *Engine
	tr   *obs.Tracer
	log  *bytes.Buffer
	hist *history.Store
	dir  string
	wd   *watchdog.Watchdog
}

// lifecycleRecords is what the sinks gained during one call.
type lifecycleRecords struct {
	traces  []obs.TraceSnapshot
	events  []map[string]any
	queries []history.QueryRecord
	audited map[string]bool // trace ids of history audit records
	watched uint64          // watchdog observations
}

func newLifecycleRig(t *testing.T) *lifecycleRig {
	t.Helper()
	r := &lifecycleRig{t: t, tr: obs.NewTracer(obs.Config{RingSize: 256}),
		log: &bytes.Buffer{}, dir: t.TempDir()}
	r.hist = openTestHistory(t, r.dir)
	t.Cleanup(func() { r.hist.Close() })
	r.wd = watchdog.New(watchdog.Config{AuditFraction: 1, Synchronous: true})
	t.Cleanup(r.wd.Close)
	e, tbl := buildSessions(t, Config{
		Seed: 41, Workers: 2, BootstrapK: 30, CacheBytes: 4 << 20,
		Obs:      r.tr,
		EventLog: obs.NewEventLog(r.log, obs.Config{}),
		Watchdog: r.wd,
		History:  r.hist,
	}, 20000)
	if err := e.BuildSamples("Sessions", 5000); err != nil {
		t.Fatal(err)
	}
	// Raw has no samples, so every query on it runs exactly.
	if err := e.RegisterTable("Raw", tbl); err != nil {
		t.Fatal(err)
	}
	r.e = e
	return r
}

// mark returns the sinks' current sizes; since reports what was added
// after a mark.
type lifecycleMark struct {
	traces, logBytes, queries int
	audits                    map[string]bool
	watched                   uint64
}

func (r *lifecycleRig) mark() lifecycleMark {
	m := lifecycleMark{traces: len(r.tr.Recent()), logBytes: r.log.Len(),
		watched: r.wd.Status().Observations}
	qs, audits := r.history()
	m.queries, m.audits = len(qs), audits
	return m
}

func (r *lifecycleRig) history() ([]history.QueryRecord, map[string]bool) {
	r.t.Helper()
	if err := r.hist.Sync(); err != nil {
		r.t.Fatal(err)
	}
	var qs []history.QueryRecord
	audits := map[string]bool{}
	if _, err := history.ReplayDir(r.dir, func(rec *history.Record) {
		switch rec.Kind {
		case history.KindQuery:
			qs = append(qs, *rec.Query)
		case history.KindAudit:
			audits[rec.Audit.TraceID] = true
		}
	}); err != nil {
		r.t.Fatal(err)
	}
	return qs, audits
}

func (r *lifecycleRig) since(m lifecycleMark) lifecycleRecords {
	r.t.Helper()
	var out lifecycleRecords
	recent := r.tr.Recent() // newest first
	out.traces = recent[:len(recent)-m.traces]
	sc := bufio.NewScanner(bytes.NewReader(r.log.Bytes()[m.logBytes:]))
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			r.t.Fatalf("unparseable event line %q: %v", sc.Text(), err)
		}
		if ev["kind"] == "query" {
			out.events = append(out.events, ev)
		}
	}
	qs, audits := r.history()
	out.queries = qs[m.queries:]
	out.audited = map[string]bool{}
	for id := range audits {
		if !m.audits[id] {
			out.audited[id] = true
		}
	}
	out.watched = r.wd.Status().Observations - m.watched
	return out
}

// lifecycleCall is one query the rig expects to see in every sink.
type lifecycleCall struct {
	traceID   string
	queueWait bool   // RunOptions.QueueWait was set
	watched   bool   // the watchdog observes the finished answer
	outcome   string // "ok" or "error"
	ans       *Answer
}

// check asserts that the calls — and nothing else — produced exactly one
// ring trace, one kind=query event and one history query record each,
// joined by trace id; that queue wait appears only where it was set; and
// that the watchdog observed and audited only what it should.
func (r *lifecycleRig) check(name string, got lifecycleRecords, calls ...lifecycleCall) {
	r.t.Helper()
	if len(got.traces) != len(calls) || len(got.events) != len(calls) || len(got.queries) != len(calls) {
		r.t.Fatalf("%s: %d traces, %d query events, %d history records; want %d of each",
			name, len(got.traces), len(got.events), len(got.queries), len(calls))
	}
	traces := map[string]obs.TraceSnapshot{}
	for _, s := range got.traces {
		traces[s.TraceID] = s
	}
	events := map[string]map[string]any{}
	for _, ev := range got.events {
		id, _ := ev["trace_id"].(string)
		events[id] = ev
	}
	queries := map[string]history.QueryRecord{}
	for _, q := range got.queries {
		queries[q.TraceID] = q
	}
	var wantWatched uint64
	wantAudited := map[string]bool{}
	for _, c := range calls {
		s, okT := traces[c.traceID]
		ev, okE := events[c.traceID]
		q, okQ := queries[c.traceID]
		if !okT || !okE || !okQ {
			r.t.Fatalf("%s: trace %s: ring=%v event=%v history=%v", name, c.traceID, okT, okE, okQ)
		}
		if s.Outcome != c.outcome || ev["outcome"] != c.outcome || q.Outcome != c.outcome {
			r.t.Errorf("%s: outcomes ring=%q event=%v history=%q, want %q",
				name, s.Outcome, ev["outcome"], q.Outcome, c.outcome)
		}
		_, evWait := ev["queue_wait_ms"]
		if (s.QueueWaitMs > 0) != c.queueWait || evWait != c.queueWait || (q.QueueWaitMs > 0) != c.queueWait {
			r.t.Errorf("%s: queue wait ring=%v event=%v history=%v, want present=%v",
				name, s.QueueWaitMs, ev["queue_wait_ms"], q.QueueWaitMs, c.queueWait)
		}
		if c.watched {
			wantWatched++
			if estimated(c.ans) {
				wantAudited[c.traceID] = true
			}
		}
	}
	if got.watched != wantWatched {
		r.t.Errorf("%s: watchdog observed %d queries, want %d", name, got.watched, wantWatched)
	}
	if !sameKeys(got.audited, wantAudited) {
		r.t.Errorf("%s: audited traces %v, want %v", name, got.audited, wantAudited)
	}
}

// estimated reports whether an answer carries an estimated interval the
// watchdog's audit can hold to account.
func estimated(ans *Answer) bool {
	if ans == nil || ans.Cached {
		return false
	}
	for _, g := range ans.Groups {
		for _, a := range g.Aggs {
			if !a.Exact && !math.IsNaN(a.ErrorBar.HalfWidth) {
				return true
			}
		}
	}
	return false
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// tracedCtx returns a context carrying a fresh trace identity and its id.
func tracedCtx() (context.Context, string) {
	tc := obs.NewTraceContext()
	return obs.ContextWithTrace(context.Background(), tc), tc.TraceIDString()
}

// TestQueryLifecycleParity pins the one-query lifecycle every entry point
// shares: each finished query — approximate, exact, budgeted, replayed,
// failed or batched — leaves exactly one trace, one event-log query record
// and one history record under one trace id. The watchdog observes every
// successful, uncached query answered from a sample — never an exact
// answer, whichever entry point produced it — and audits the estimated
// ones; a CachedAnswer miss leaves nothing at all.
func TestQueryLifecycleParity(t *testing.T) {
	r := newLifecycleRig(t)
	const wait = 5 * time.Millisecond
	step := func(name string, fn func() []lifecycleCall) {
		t.Helper()
		m := r.mark()
		calls := fn()
		r.check(name, r.since(m), calls...)
	}
	okCall := func(id string, ans *Answer, err error, watched, queueWait bool) lifecycleCall {
		t.Helper()
		if err != nil {
			t.Fatalf("trace %s: %v", id, err)
		}
		return lifecycleCall{traceID: id, ans: ans, watched: watched, queueWait: queueWait, outcome: "ok"}
	}

	step("Run", func() []lifecycleCall {
		ctx, id := tracedCtx()
		ans, err := r.e.Run(ctx, "SELECT AVG(Time) FROM Sessions")
		return []lifecycleCall{okCall(id, ans, err, true, false)}
	})
	step("RunWithOptions", func() []lifecycleCall {
		ctx, id := tracedCtx()
		ans, err := r.e.RunWithOptions(ctx, "SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'",
			RunOptions{QueueWait: wait})
		return []lifecycleCall{okCall(id, ans, err, true, true)}
	})
	step("RunWithErrorBound", func() []lifecycleCall {
		ctx, id := tracedCtx()
		ans, err := r.e.RunWithErrorBound(ctx, "SELECT AVG(Time) FROM Sessions WHERE City = 'SF'", 0.5)
		return []lifecycleCall{okCall(id, ans, err, true, false)}
	})
	step("RunWithTimeBudget", func() []lifecycleCall {
		ctx, id := tracedCtx()
		ans, err := r.e.RunWithTimeBudget(ctx, "SELECT AVG(Time) FROM Sessions WHERE City = 'LA'", time.Minute)
		return []lifecycleCall{okCall(id, ans, err, true, false)}
	})
	step("Run on a table without samples", func() []lifecycleCall {
		ctx, id := tracedCtx()
		ans, err := r.e.Run(ctx, "SELECT COUNT(*) FROM Raw")
		return []lifecycleCall{okCall(id, ans, err, false, false)}
	})
	step("RunExact", func() []lifecycleCall {
		ctx, id := tracedCtx()
		ans, err := r.e.RunExact(ctx, "SELECT COUNT(*) FROM Sessions")
		return []lifecycleCall{okCall(id, ans, err, false, false)}
	})
	step("CachedAnswer hit", func() []lifecycleCall {
		ctx, id := tracedCtx()
		ans, ok := r.e.CachedAnswer(ctx, "SELECT AVG(Time) FROM Sessions", 0)
		if !ok || !ans.Cached {
			t.Fatalf("CachedAnswer missed an answer Run just cached")
		}
		return []lifecycleCall{okCall(id, ans, nil, false, false)}
	})
	step("CachedAnswer miss", func() []lifecycleCall {
		ctx, _ := tracedCtx()
		if _, ok := r.e.CachedAnswer(ctx, "SELECT AVG(Time) FROM Sessions WHERE City = 'CHI'", 0); ok {
			t.Fatal("CachedAnswer hit an answer nothing cached")
		}
		return nil
	})
	step("parse error", func() []lifecycleCall {
		ctx, id := tracedCtx()
		if _, err := r.e.Run(ctx, "SELECT FROM nonsense"); err == nil {
			t.Fatal("parse error expected")
		}
		return []lifecycleCall{{traceID: id, outcome: "error"}}
	})
	step("RunSharedBatch", func() []lifecycleCall {
		sharedCtx, sharedID := tracedCtx()
		exactCtx, exactID := tracedCtx()
		cachedCtx, cachedID := tracedCtx()
		out := r.e.RunSharedBatch([]BatchRequest{
			{Ctx: sharedCtx, Query: "SELECT AVG(Time) FROM Sessions WHERE City = 'CHI'",
				Opts: RunOptions{QueueWait: wait}},
			{Ctx: exactCtx, Query: "SELECT AVG(Time) FROM Raw"},
			{Ctx: cachedCtx, Query: "SELECT AVG(Time) FROM Sessions"},
		})
		if !out[0].Ans.SharedScan || out[1].Ans.SampleRows != 0 || !out[2].Ans.Cached {
			t.Fatalf("batch members took unexpected paths: shared=%v exact rows=%d cached=%v",
				out[0].Ans.SharedScan, out[1].Ans.SampleRows, out[2].Ans.Cached)
		}
		return []lifecycleCall{
			okCall(sharedID, out[0].Ans, out[0].Err, true, true),
			okCall(exactID, out[1].Ans, out[1].Err, false, false),
			okCall(cachedID, out[2].Ans, out[2].Err, false, false),
		}
	})

	// Every trace id the ring holds is distinct: no query was recorded twice.
	var ids []string
	for _, s := range r.tr.Recent() {
		ids = append(ids, s.TraceID)
	}
	sort.Strings(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			t.Fatalf("trace id %s recorded twice", ids[i])
		}
	}
}
