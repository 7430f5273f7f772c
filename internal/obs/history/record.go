package history

import "repro/internal/obs"

// Record kinds. Every record in a segment is exactly one of these.
const (
	KindQuery  = "query"  // one finished query
	KindAudit  = "audit"  // one watchdog ground-truth comparison
	KindReject = "reject" // one admission-layer rejection (never executed)
)

// Record is the unit of the history log: a kind tag, a wall-clock
// timestamp, and exactly one populated payload. Float fields are mapped
// through obs.FiniteRel (RelErr) and obs.Finite (everything else) when
// the payload is projected, because the payload is JSON.
type Record struct {
	Kind string `json:"kind"`
	// TS is the record's wall-clock time in Unix nanoseconds.
	TS     int64         `json:"ts"`
	Query  *QueryRecord  `json:"query,omitempty"`
	Audit  *AuditRecord  `json:"audit,omitempty"`
	Reject *RejectRecord `json:"reject,omitempty"`
}

// QueryRecord is the durable residue of one finished query: identity,
// plan shape (table, sample, canonical predicate), outcome, latency
// breakdown, and per-aggregate error behaviour — everything the workload
// profiler and a future constraint planner need, nothing more (group
// values and estimates stay in the event log; the history store is about
// shapes, not answers).
type QueryRecord struct {
	QID uint64 `json:"qid"`
	// TraceID is the query's distributed-trace id (32 hex chars, "" when
	// tracing is off) — the join key back to the span ring, event log and
	// any exported OTLP spans.
	TraceID     string             `json:"trace_id,omitempty"`
	SQL         string             `json:"sql"`
	Table       string             `json:"table,omitempty"`
	Sample      string             `json:"sample,omitempty"`    // sample row count, or "exact"
	Predicate   string             `json:"predicate,omitempty"` // canonical predicate signature
	Outcome     string             `json:"outcome"`             // "ok" | "cancelled" | "error"
	TotalMs     float64            `json:"total_ms"`
	QueueWaitMs float64            `json:"queue_wait_ms,omitempty"`
	StagesMs    map[string]float64 `json:"stages_ms,omitempty"`
	// Selectivity is rows passing the predicate over rows inspected
	// (-1 when the query scanned nothing).
	Selectivity float64 `json:"selectivity"`
	// SampleFraction is sample rows over population rows (1 for exact
	// execution, 0 when the population size is unknown).
	SampleFraction float64 `json:"sample_fraction,omitempty"`
	// KBudget is the bootstrap replicate budget the plan allowed; KUsed is
	// the largest replicate count the adaptive stopping rule actually ran.
	KBudget    int         `json:"k_budget,omitempty"`
	KUsed      int         `json:"k_used,omitempty"`
	SharedScan bool        `json:"shared_scan,omitempty"`
	FellBack   bool        `json:"fell_back,omitempty"`
	Aggs       []AggSample `json:"aggs,omitempty"`
}

// AggSample is one aggregate's error outcome inside a QueryRecord.
type AggSample struct {
	// Kind is the aggregate kind ("AVG", "SUM", ..., or the UDF name).
	Kind string `json:"kind"`
	// RelErr is the half-width over |estimate| (-1 when undefined: exact
	// answers and zero-centered estimates).
	RelErr    float64 `json:"rel_err"`
	Technique string  `json:"technique,omitempty"`
	Rejected  bool    `json:"rejected,omitempty"`
	Exact     bool    `json:"exact,omitempty"`
}

// AuditRecord is one audited aggregate: the watchdog re-ran the query
// exactly and compared the approximate CI against ground truth.
type AuditRecord struct {
	QID uint64 `json:"qid"`
	// TraceID joins the audit back to the audited query's trace.
	TraceID   string `json:"trace_id,omitempty"`
	Table     string `json:"table,omitempty"`
	Sample    string `json:"sample,omitempty"`
	Predicate string `json:"predicate,omitempty"`
	// Kind is the aggregate kind; Agg the full label (e.g. "AVG(Time)").
	Kind    string  `json:"kind"`
	Agg     string  `json:"agg"`
	Group   string  `json:"group,omitempty"`
	Covered bool    `json:"covered"`
	Truth   float64 `json:"truth"`
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
}

// RejectRecord is one admission rejection: the query never reached the
// engine, so no QueryRecord exists — but availability SLOs must still see
// it.
type RejectRecord struct {
	Reason string `json:"reason"`
}

// queryRecord projects a finished query onto its durable record. A query
// that produced no answer keeps its identity, outcome and latency.
func queryRecord(fq *obs.FinishedQuery) QueryRecord {
	t := &fq.Trace
	q := QueryRecord{
		QID:         t.ID,
		TraceID:     t.TraceID,
		SQL:         t.SQL,
		Table:       fq.Table,
		Predicate:   fq.Predicate,
		Outcome:     t.Outcome,
		TotalMs:     obs.Finite(t.TotalMs),
		QueueWaitMs: obs.Finite(t.QueueWaitMs),
		Selectivity: obs.Finite(fq.Selectivity),
		KBudget:     fq.KBudget,
		KUsed:       fq.KUsed,
		SharedScan:  fq.SharedScan,
		FellBack:    fq.FellBack,
	}
	if len(fq.StagesMs) > 0 {
		q.StagesMs = make(map[string]float64, len(fq.StagesMs))
		for k, v := range fq.StagesMs {
			q.StagesMs[k] = obs.Finite(v)
		}
	}
	if t.Outcome == "ok" {
		q.Sample = fq.Sample()
		if fq.SampleRows == 0 {
			q.SampleFraction = 1 // exact execution reads the population
		} else if fq.PopulationRows > 0 {
			q.SampleFraction = obs.Finite(float64(fq.SampleRows) / float64(fq.PopulationRows))
		}
	}
	for _, a := range fq.Aggs {
		q.Aggs = append(q.Aggs, AggSample{
			Kind:      a.Kind,
			RelErr:    obs.FiniteRel(a.RelErr),
			Technique: a.Technique,
			Rejected:  a.Rejected,
			Exact:     a.Exact,
		})
	}
	return q
}

// auditRecord projects an audit outcome onto its durable record.
func auditRecord(o obs.AuditOutcome) AuditRecord {
	q := o.Query
	return AuditRecord{
		QID:       q.Trace.ID,
		TraceID:   q.Trace.TraceID,
		Table:     q.Table,
		Sample:    q.Sample(),
		Predicate: q.Predicate,
		Kind:      o.Agg.Kind,
		Agg:       o.Agg.Name,
		Group:     o.Agg.Group,
		Covered:   o.Covered,
		Truth:     obs.Finite(o.Truth),
		Lo:        obs.Finite(o.Agg.Lo()),
		Hi:        obs.Finite(o.Agg.Hi()),
	}
}
