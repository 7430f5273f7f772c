package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"

	"repro/internal/obs/history"
	"repro/internal/sql"
	"repro/internal/watchdog"
)

// sinkMark is where each per-query sink stood before a step.
type sinkMark struct {
	logBytes int
	records  int
	status   watchdog.Status
}

// sinkStep is what each per-query sink gained during one step.
type sinkStep struct {
	events     map[string]map[string]any // kind=query lines by trace id
	auditLines []map[string]any          // kind=audit lines, in order
	queries    map[string]history.QueryRecord
	audits     []history.AuditRecord
	keys       map[watchdog.Key]keyDelta
}

// keyDelta is how one watchdog key's counts moved during a step.
type keyDelta struct {
	observations int64
	rejects      int
	techniques   map[string]int64
}

func (r *lifecycleRig) records() []history.Record {
	r.t.Helper()
	if err := r.hist.Sync(); err != nil {
		r.t.Fatal(err)
	}
	var out []history.Record
	if _, err := history.ReplayDir(r.dir, func(rec *history.Record) {
		out = append(out, *rec)
	}); err != nil {
		r.t.Fatal(err)
	}
	return out
}

func (r *lifecycleRig) sinkMark() sinkMark {
	return sinkMark{logBytes: r.log.Len(), records: len(r.records()), status: r.wd.Status()}
}

func (r *lifecycleRig) sinkSince(m sinkMark) sinkStep {
	r.t.Helper()
	out := sinkStep{
		events:  map[string]map[string]any{},
		queries: map[string]history.QueryRecord{},
		keys:    map[watchdog.Key]keyDelta{},
	}
	sc := bufio.NewScanner(bytes.NewReader(r.log.Bytes()[m.logBytes:]))
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			r.t.Fatalf("unparseable event line %q: %v", sc.Text(), err)
		}
		switch ev["kind"] {
		case "query":
			id, _ := ev["trace_id"].(string)
			out.events[id] = ev
		case "audit":
			out.auditLines = append(out.auditLines, ev)
		}
	}
	for _, rec := range r.records()[m.records:] {
		switch rec.Kind {
		case history.KindQuery:
			out.queries[rec.Query.TraceID] = *rec.Query
		case history.KindAudit:
			out.audits = append(out.audits, *rec.Audit)
		}
	}
	before := map[watchdog.Key]watchdog.KeyStatus{}
	for _, k := range m.status.Keys {
		before[k.Key] = k
	}
	for _, k := range r.wd.Status().Keys {
		b := before[k.Key]
		d := keyDelta{
			observations: k.Observations - b.Observations,
			rejects:      windowTrues(k.RejectRate, k.RejectWindow) - windowTrues(b.RejectRate, b.RejectWindow),
			techniques:   map[string]int64{},
		}
		for tech, n := range k.Techniques {
			if n != b.Techniques[tech] {
				d.techniques[tech] = n - b.Techniques[tech]
			}
		}
		if d.observations != 0 || d.rejects != 0 || len(d.techniques) != 0 {
			out.keys[k.Key] = d
		}
	}
	return out
}

// windowTrues recovers a rolling window's true-trial count from its rate.
func windowTrues(rate float64, n int) int { return int(math.Round(rate * float64(n))) }

// jsonFloat and jsonRel are the JSON sinks' shared rule for non-finite
// floats: an undefined relative error becomes -1, anything else 0.
func jsonFloat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func jsonRel(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return -1
	}
	return v
}

// parityCall is one query a parity step expects every sink to record.
type parityCall struct {
	traceID string
	ans     *Answer // nil for a failed query
	watched bool    // the watchdog observes (and, estimated, audits) it
}

// checkParity asserts that every sink recorded each call with the values
// its returned Answer implies, and that the watchdog moved by exactly the
// watched calls' aggregates.
func checkParity(t *testing.T, name string, got sinkStep, calls ...parityCall) {
	t.Helper()
	if len(got.events) != len(calls) || len(got.queries) != len(calls) {
		t.Fatalf("%s: %d query events and %d history records, want %d of each",
			name, len(got.events), len(got.queries), len(calls))
	}
	wantKeys := map[watchdog.Key]keyDelta{}
	var wantAuditLines int
	wantAudits := map[string]bool{} // trace id / group / agg of every audited agg
	for _, c := range calls {
		ev, okE := got.events[c.traceID]
		q, okQ := got.queries[c.traceID]
		if !okE || !okQ {
			t.Fatalf("%s: trace %s: event=%v history=%v", name, c.traceID, okE, okQ)
		}
		if ev["qid"] != float64(q.QID) {
			t.Errorf("%s: event qid %v, history qid %d", name, ev["qid"], q.QID)
		}
		if c.ans == nil {
			if ev["outcome"] != "error" || q.Outcome != "error" || ev["error"] == nil {
				t.Errorf("%s: failed query outcome event=%v history=%q", name, ev["outcome"], q.Outcome)
			}
			if q.Sample != "" || q.Selectivity != -1 || len(q.Aggs) != 0 || ev["aggs"] != nil {
				t.Errorf("%s: failed query carries answer fields: history %+v, event %v", name, q, ev)
			}
			if c.watched {
				t.Fatalf("%s: a failed query cannot be watched", name)
			}
			continue
		}
		ans := c.ans
		if ev["outcome"] != "ok" || q.Outcome != "ok" {
			t.Errorf("%s: outcome event=%v history=%q", name, ev["outcome"], q.Outcome)
		}
		def := ans.Plan.Def
		kBudget := ans.Plan.Opt.BootstrapK
		sample := "exact"
		if ans.SampleRows > 0 {
			sample = strconv.Itoa(ans.SampleRows)
		}
		frac := 1.0
		if ans.SampleRows > 0 {
			frac = float64(ans.SampleRows) / float64(ans.PopulationRows)
		}
		// Event-log line: optional keys are omitted at their zero value.
		optional := func(key string, want any, zero bool) {
			t.Helper()
			v, present := ev[key]
			if zero && present || !zero && v != want {
				t.Errorf("%s: event %s = %v (present %v), want %v", name, key, v, present, want)
			}
		}
		optional("sample_rows", float64(ans.SampleRows), ans.SampleRows == 0)
		optional("bootstrap_k", float64(kBudget), kBudget == 0)
		optional("fell_back", true, !ans.FellBack())
		optional("shared_scan", true, !ans.SharedScan)
		optional("cached", true, !ans.Cached)
		ans.Counters.Each(func(key string, n int64, _ bool) {
			optional(key, float64(n), n == 0)
		})
		// History record.
		if q.Table != def.Table || q.Predicate != sql.PredicateSignature(def.Where) ||
			q.Sample != sample || q.SampleFraction != frac || q.Selectivity != ans.Selectivity ||
			q.KBudget != kBudget || q.KUsed != ans.BootstrapKUsed ||
			q.SharedScan != ans.SharedScan || q.FellBack != ans.FellBack() {
			t.Errorf("%s: history record %+v disagrees with answer (table %s, sample %s, frac %v, sel %v, k %d/%d, shared %v, fell back %v)",
				name, q, def.Table, sample, frac, ans.Selectivity, kBudget, ans.BootstrapKUsed,
				ans.SharedScan, ans.FellBack())
		}
		// Per-aggregate outcomes, in group-then-aggregate order.
		evAggs, _ := ev["aggs"].([]any)
		n := 0
		for _, g := range ans.Groups {
			n += len(g.Aggs)
		}
		aggsOK := len(evAggs) == n && len(q.Aggs) == n
		if !aggsOK {
			t.Errorf("%s: event has %d aggs (%v), history %d, answer %d",
				name, len(evAggs), ev["aggs"], len(q.Aggs), n)
		}
		i := 0
		for _, g := range ans.Groups {
			for ai, a := range g.Aggs {
				if aggsOK {
					checkAgg(t, name, evAggs[i], q.Aggs[i], g.Key, a, aggKindLabel(def, ai))
				}
				i++
				if !c.watched {
					continue
				}
				k := watchdog.Key{Agg: a.Name, Sample: sample}
				d := wantKeys[k]
				if d.techniques == nil {
					d.techniques = map[string]int64{}
				}
				d.observations++
				d.techniques[a.Technique]++
				if !a.DiagnosticOK {
					d.rejects++
				}
				wantKeys[k] = d
				if !a.Exact && !math.IsNaN(a.ErrorBar.HalfWidth) {
					wantAudits[c.traceID+"|"+g.Key+"|"+a.Name] = true
					checkAuditRecord(t, name, got.audits, c.traceID, q, g.Key, a, aggKindLabel(def, ai))
				}
			}
		}
		if c.watched {
			wantAuditLines++ // every watched query is audited at fraction 1
			found := false
			for _, line := range got.auditLines {
				if line["trace_id"] == c.traceID && line["qid"] == float64(q.QID) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: no kind=audit event line joins trace %s (qid %d): %v",
					name, c.traceID, q.QID, got.auditLines)
			}
		}
	}
	if len(got.auditLines) != wantAuditLines {
		t.Errorf("%s: %d audit event lines, want %d", name, len(got.auditLines), wantAuditLines)
	}
	if len(got.audits) != len(wantAudits) {
		t.Errorf("%s: %d history audit records, want %d", name, len(got.audits), len(wantAudits))
	}
	if len(got.keys) != len(wantKeys) {
		t.Errorf("%s: watchdog keys moved %v, want %v", name, got.keys, wantKeys)
	}
	for k, want := range wantKeys {
		d := got.keys[k]
		if d.observations != want.observations || d.rejects != want.rejects ||
			len(d.techniques) != len(want.techniques) {
			t.Errorf("%s: watchdog key %v moved %+v, want %+v", name, k, d, want)
			continue
		}
		for tech, n := range want.techniques {
			if d.techniques[tech] != n {
				t.Errorf("%s: watchdog key %v technique %s +%d, want +%d", name, k, tech, d.techniques[tech], n)
			}
		}
	}
}

// checkAgg asserts one aggregate's event-log entry and history sample
// agree with the answer's aggregate.
func checkAgg(t *testing.T, name string, evAgg any, ha history.AggSample, group string, a AggAnswer, kind string) {
	t.Helper()
	verdict := "reject"
	if a.DiagnosticOK {
		verdict = "accept"
	}
	ea, _ := evAgg.(map[string]any)
	if ea["group"] != nilIfEmpty(group) || ea["name"] != a.Name ||
		ea["estimate"] != jsonFloat(a.Estimate) ||
		ea["lo"] != jsonFloat(a.ErrorBar.Lo()) || ea["hi"] != jsonFloat(a.ErrorBar.Hi()) ||
		ea["rel_err"] != jsonRel(a.RelErr) || ea["technique"] != a.Technique ||
		ea["verdict"] != verdict || ea["exact"] != nilIfFalse(a.Exact) {
		t.Errorf("%s: event agg %v disagrees with answer %+v", name, ea, a)
	}
	if ha.Kind != kind || ha.RelErr != jsonRel(a.RelErr) || ha.Technique != a.Technique ||
		ha.Rejected != !a.DiagnosticOK || ha.Exact != a.Exact {
		t.Errorf("%s: history agg %+v disagrees with answer %+v", name, ha, a)
	}
}

// checkAuditRecord asserts the history audit record for one audited
// aggregate carries the audited query's identity and reported interval.
func checkAuditRecord(t *testing.T, name string, audits []history.AuditRecord, traceID string, q history.QueryRecord, group string, a AggAnswer, kind string) {
	t.Helper()
	for _, au := range audits {
		if au.TraceID != traceID || au.Group != group || au.Agg != a.Name {
			continue
		}
		if au.QID != q.QID || au.Table != q.Table || au.Sample != q.Sample ||
			au.Predicate != q.Predicate || au.Kind != kind ||
			au.Lo != jsonFloat(a.ErrorBar.Lo()) || au.Hi != jsonFloat(a.ErrorBar.Hi()) ||
			au.Covered != a.ErrorBar.Contains(au.Truth) {
			t.Errorf("%s: audit record %+v disagrees with query %+v / answer %+v", name, au, q, a)
		}
		return
	}
	t.Errorf("%s: no history audit record for trace %s agg %s group %q", name, traceID, a.Name, group)
}

func nilIfEmpty(s string) any {
	if s == "" {
		return nil
	}
	return s
}

func nilIfFalse(b bool) any {
	if !b {
		return nil
	}
	return true
}

// TestSinkParity pins that the event log, the history store and the
// watchdog record one finished query alike: for each query form, every
// field a sink keeps agrees with the value derived from the returned
// Answer, audit lines join back to the query they audited, and answers
// whose aggregates are non-finite (0 ± 0, an empty-selection SUM, a NaN
// percentile) still reach every JSON sink as valid JSON.
func TestSinkParity(t *testing.T) {
	r := newLifecycleRig(t)
	if err := r.e.RegisterTable("T", paretoTable(120000)); err != nil {
		t.Fatal(err)
	}
	if err := r.e.BuildSamples("T", 40000); err != nil {
		t.Fatal(err)
	}
	step := func(name string, fn func() []parityCall) {
		t.Helper()
		m := r.sinkMark()
		calls := fn()
		checkParity(t, name, r.sinkSince(m), calls...)
	}
	run := func(query string, watched bool) []parityCall {
		t.Helper()
		ctx, id := tracedCtx()
		ans, err := r.e.Run(ctx, query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		return []parityCall{{traceID: id, ans: ans, watched: watched}}
	}

	step("ungrouped", func() []parityCall {
		return run("SELECT AVG(Time), SUM(Time) FROM Sessions WHERE City = 'NYC'", true)
	})
	step("grouped", func() []parityCall {
		return run("SELECT AVG(Time), COUNT(*) FROM Sessions GROUP BY City", true)
	})
	step("fallback", func() []parityCall {
		calls := run("SELECT MAX(v) FROM T", true)
		if !calls[0].ans.FellBack() {
			t.Fatal("premise: MAX over the Pareto table did not fall back")
		}
		return calls
	})
	step("RunExact", func() []parityCall {
		ctx, id := tracedCtx()
		ans, err := r.e.RunExact(ctx, "SELECT COUNT(*) FROM Sessions WHERE City = 'SF'")
		if err != nil {
			t.Fatal(err)
		}
		return []parityCall{{traceID: id, ans: ans}}
	})
	step("cached replay", func() []parityCall {
		calls := run("SELECT AVG(Time), SUM(Time) FROM Sessions WHERE City = 'NYC'", false)
		if !calls[0].ans.Cached {
			t.Fatal("premise: repeated query was not replayed from the answer cache")
		}
		return calls
	})
	step("shared batch", func() []parityCall {
		ctxA, idA := tracedCtx()
		ctxB, idB := tracedCtx()
		out := r.e.RunSharedBatch([]BatchRequest{
			{Ctx: ctxA, Query: "SELECT AVG(Time) FROM Sessions WHERE City = 'LA'"},
			{Ctx: ctxB, Query: "SELECT COUNT(*) FROM Sessions WHERE City = 'CHI'"},
		})
		for _, o := range out {
			if o.Err != nil || !o.Ans.SharedScan {
				t.Fatalf("premise: batch member err=%v shared=%v", o.Err, o.Ans != nil && o.Ans.SharedScan)
			}
		}
		return []parityCall{
			{traceID: idA, ans: out[0].Ans, watched: true},
			{traceID: idB, ans: out[1].Ans, watched: true},
		}
	})
	step("parse error", func() []parityCall {
		ctx, id := tracedCtx()
		if _, err := r.e.Run(ctx, "SELECT FROM nonsense"); err == nil {
			t.Fatal("parse error expected")
		}
		return []parityCall{{traceID: id}}
	})
	for _, q := range []string{
		"SELECT COUNT(*) FROM Sessions WHERE Time < -1000",
		"SELECT SUM(Time) FROM Sessions WHERE Time < -1000",
		"SELECT PERCENTILE(Time, 0.5) FROM Sessions WHERE Time < -1000",
	} {
		step("non-finite "+q, func() []parityCall {
			calls := run(q, true)
			a := calls[0].ans.Groups[0].Aggs[0]
			if !math.IsNaN(a.Estimate) && !math.IsNaN(a.RelErr) && !math.IsInf(a.RelErr, 0) {
				t.Fatalf("premise: %s answered %v (rel err %v), want a non-finite aggregate",
					q, a.ErrorBar, a.RelErr)
			}
			return calls
		})
	}
}
