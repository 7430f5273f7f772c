package core

import (
	"context"
	"time"

	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/watchdog"
)

// openQuery opens one query's lifecycle: it binds the trace identity on
// ctx (minting a root when the caller sent none), starts the query trace
// and records any admission queue wait. Every query entry point opens here
// and closes through finishQuery.
func (e *Engine) openQuery(ctx context.Context, query string, queueWait time.Duration) (context.Context, *obs.QueryTrace) {
	ctx, tc := obs.EnsureTrace(ctx)
	qt := e.obs.StartQuery(query)
	qt.SetTraceContext(tc)
	if queueWait > 0 {
		qt.SetQueueWait(queueWait)
	}
	return ctx, qt
}

// runQuery runs body as one query between openQuery and finishQuery; the
// finish is deferred so a panicking body still closes its trace.
func (e *Engine) runQuery(ctx context.Context, query string, queueWait time.Duration, body func(context.Context, *obs.QueryTrace) (*Answer, error)) (ans *Answer, err error) {
	ctx, qt := e.openQuery(ctx, query, queueWait)
	defer func() { e.finishQuery(ctx, qt, query, ans, err) }()
	return body(ctx, qt)
}

// finishQuery closes the trace and builds the query's one finished-query
// record for the engine's passive sinks: the structured event log, the
// history store and the calibration watchdog. The sinks consume only the
// record — no engine randomness, no answer mutation — so answers stay
// bit-identical with them on or off (asserted by
// TestTelemetryDoesNotPerturbAnswers). With no sink attached no record is
// built.
//
// The watchdog holds estimated intervals to account, so it observes a
// query exactly when it succeeded on a sample: not a cached replay (no new
// statistical work) and not an exact answer (no estimated interval; the
// watchdog's own audits run through runExact). Fallback answers keep their
// sample rows, so their rejections stay in the reject-rate window.
//
// ctx supplies the query's trace context when the tracer is disabled (the
// tracer-built snapshot already carries it via SetTraceContext), so the
// trace id reaches every sink either way.
func (e *Engine) finishQuery(ctx context.Context, qt *obs.QueryTrace, query string, ans *Answer, err error) {
	qt.Finish(err)
	watch := e.wd != nil && err == nil && ans != nil && !ans.Cached && ans.SampleRows > 0
	if e.elog == nil && !watch && e.hist == nil {
		return
	}
	snap, ok := qt.Snapshot()
	if !ok {
		// Tracer disabled but a sink is attached: synthesize the identity
		// fields the sinks need.
		snap = obs.TraceSnapshot{SQL: query, Outcome: obs.Outcome(err)}
		if tc, tok := obs.TraceFromContext(ctx); tok {
			snap.TraceID = tc.TraceIDString()
			snap.SpanID = tc.SpanIDString()
			snap.ParentSpanID = tc.ParentString()
		}
		if err != nil {
			snap.Err = err.Error()
		}
		if ans != nil {
			snap.TotalMs = float64(ans.Elapsed) / float64(time.Millisecond)
		}
	}
	q := &obs.FinishedQuery{Trace: snap, StagesMs: obs.StageLatencies(snap.Spans), Selectivity: -1}
	if ans != nil {
		q.SampleRows = ans.SampleRows
		q.PopulationRows = ans.PopulationRows
		q.Selectivity = ans.Selectivity
		q.KUsed = ans.BootstrapKUsed
		q.FellBack = ans.FellBack()
		q.SharedScan = ans.SharedScan
		q.Cached = ans.Cached
		ans.Counters.Each(func(key string, n int64, _ bool) {
			q.Counters = append(q.Counters, obs.Count{Key: key, N: n})
		})
		var def *plan.QueryDef
		if ans.Plan != nil {
			def = ans.Plan.Def
			q.KBudget = ans.Plan.Opt.BootstrapK
		}
		if def != nil {
			q.Table = def.Table
			q.Predicate = sql.PredicateSignature(def.Where)
		}
		for _, g := range ans.Groups {
			for ai, a := range g.Aggs {
				q.Aggs = append(q.Aggs, obs.AggOutcome{
					Group:     g.Key,
					Name:      a.Name,
					Kind:      aggKindLabel(def, ai),
					Estimate:  a.Estimate,
					Center:    a.ErrorBar.Center,
					HalfWidth: a.ErrorBar.HalfWidth,
					RelErr:    a.RelErr,
					Technique: a.Technique,
					Rejected:  !a.DiagnosticOK,
					Exact:     a.Exact,
				})
			}
		}
	}
	e.elog.Emit(q)
	e.hist.AppendQuery(q)
	if watch {
		e.wd.Observe(q)
	}
}

// aggKindLabel names the ai-th aggregate's kind ("AVG", ..., or the UDF
// name) from the executed plan's definition.
func aggKindLabel(def *plan.QueryDef, ai int) string {
	if def == nil || ai >= len(def.Aggs) {
		return ""
	}
	spec := def.Aggs[ai]
	if spec.Kind == estimator.UDF && spec.UDFName != "" {
		return spec.UDFName
	}
	return spec.Kind.String()
}

// auditExact is the watchdog's auditor: it re-executes the observed
// query exactly — outside the trace ring and the watchdog's own
// observation loop, so audits never feed back into the statistics they
// validate — and returns the ground-truth value per aggregate output. Its
// event-log line carries the audited query's qid and trace id. Exact
// execution is deterministic, so audits consume no engine randomness.
func (e *Engine) auditExact(ctx context.Context, q *obs.FinishedQuery) (map[watchdog.AggInstance]float64, error) {
	query := q.Trace.SQL
	def, rt, err := e.analyze(nil, query)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ans, err := e.runExact(ctx, nil, nil, query, def, rt)
	if e.elog != nil {
		line := &obs.FinishedQuery{Kind: "audit", Trace: obs.TraceSnapshot{
			ID:      q.Trace.ID,
			TraceID: q.Trace.TraceID,
			SQL:     query,
			Outcome: obs.Outcome(err),
			TotalMs: float64(time.Since(start)) / float64(time.Millisecond),
		}}
		if err != nil {
			line.Trace.Err = err.Error()
		}
		e.elog.Emit(line)
	}
	if err != nil {
		return nil, err
	}
	out := make(map[watchdog.AggInstance]float64)
	for _, g := range ans.Groups {
		for _, a := range g.Aggs {
			out[watchdog.AggInstance{Group: g.Key, Agg: a.Name}] = a.Estimate
		}
	}
	return out, nil
}
