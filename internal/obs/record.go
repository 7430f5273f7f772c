package obs

import (
	"math"
	"strconv"
)

// FinishedQuery is one finished query as every per-query sink reads it.
// The engine builds it once, after the query's trace closes, and hands
// the same record to the event log, the history store and the
// calibration watchdog; each sink projects what it keeps. Floats travel
// raw — NaN and ±Inf included — because the watchdog filters them
// itself; the JSON sinks map them through Finite and FiniteRel when they
// encode, never on the shared record.
//
// The answer-derived fields are zero for a query that produced no answer
// (Trace.Outcome other than "ok"), except Selectivity, which is -1.
type FinishedQuery struct {
	// Kind is the event-log record kind: "query" (default) or "audit".
	Kind  string
	Trace TraceSnapshot
	// StagesMs is the per-stage latency breakdown of Trace.Spans.
	StagesMs map[string]float64
	// Table and Predicate (the canonical predicate signature) are the
	// executed plan's shape.
	Table     string
	Predicate string
	// SampleRows is the sample the answer was computed on (0 for exact
	// execution); PopulationRows is the full table's row count.
	SampleRows     int
	PopulationRows int
	// Selectivity is rows passing the predicate over rows scanned (-1
	// when nothing was scanned).
	Selectivity float64
	// KBudget is the bootstrap replicate budget the plan allowed; KUsed
	// the largest replicate count the adaptive stopping rule ran.
	KBudget int
	KUsed   int
	// FellBack marks an answer with an aggregate re-answered exactly.
	FellBack bool
	// SharedScan marks an answer from a shared-scan batch rather than its
	// own physical pass.
	SharedScan bool
	// Cached marks an answer replayed from the answer cache: no scan,
	// decode or resampling happened for this record.
	Cached bool
	// Counters are the answer's work counters under their span-attribute
	// keys (rows_scanned, blocks_skipped, ...).
	Counters []Count
	// Aggs holds one outcome per aggregate output, groups in answer
	// order.
	Aggs []AggOutcome
}

// Count is one named work counter of a finished query.
type Count struct {
	Key string
	N   int64
}

// AggOutcome is one aggregate output of a finished query. The interval
// travels as centre and half-width, so consumers that rebuild it do the
// same arithmetic as the estimator did.
type AggOutcome struct {
	// Group is the GROUP BY key ("" for ungrouped queries).
	Group string
	// Name is the output alias, e.g. "AVG(Time)".
	Name string
	// Kind is the aggregate kind ("AVG", "SUM", ..., or the UDF name).
	Kind      string
	Estimate  float64
	Center    float64
	HalfWidth float64
	// RelErr is the half-width over |estimate| (+Inf for a zero centre).
	RelErr    float64
	Technique string
	// Rejected reports a diagnostic rejection for this aggregate.
	Rejected bool
	// Exact marks an answer computed on the full dataset (fallback or
	// exact execution).
	Exact bool
}

// Lo returns the interval's lower endpoint.
func (a AggOutcome) Lo() float64 { return a.Center - a.HalfWidth }

// Hi returns the interval's upper endpoint.
func (a AggOutcome) Hi() float64 { return a.Center + a.HalfWidth }

// Sample names the calibration population the answer belongs to: the
// sample's row count, or "exact" for full-data answers.
func (q *FinishedQuery) Sample() string {
	if q.SampleRows <= 0 {
		return "exact"
	}
	return strconv.Itoa(q.SampleRows)
}

// AuditOutcome is one audited aggregate: the watchdog re-ran Query
// exactly and compared Agg's reported interval against the truth.
type AuditOutcome struct {
	Query   *FinishedQuery
	Agg     AggOutcome
	Truth   float64
	Covered bool
}

// StageLatencies flattens the top-level stage spans to a name→ms map;
// repeated stages (e.g. two diagnostics in a GROUP BY fan-out) accumulate.
func StageLatencies(spans []SpanSnapshot) map[string]float64 {
	if len(spans) == 0 {
		return nil
	}
	out := make(map[string]float64, len(spans))
	for _, s := range spans {
		out[s.Stage] += s.Ms
	}
	return out
}

// Finite maps a non-finite float to zero, so JSON sinks always encode.
func Finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// FiniteRel maps an undefined relative error (non-finite or negative) to
// the -1 sentinel.
func FiniteRel(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return -1
	}
	return v
}
