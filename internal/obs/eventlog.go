package obs

import (
	"context"
	"io"
	"log/slog"
	"sync"
)

// EventLog emits one structured JSON record per query — the flight
// recorder next to the trace ring's flight deck: greppable, shippable to
// a log pipeline, and carrying enough to answer "which queries were slow
// or miscalibrated, and why" without scraping /debug/queries. Records are
// written through log/slog, so the output is standard JSON lines.
//
// A nil *EventLog is a no-op, mirroring the rest of the obs package:
// instrumented paths pay one pointer comparison when logging is off. The
// log only reads finished-query records — it consumes no engine
// randomness and cannot perturb results.
type EventLog struct {
	log *slog.Logger
	opt Config
}

// lockedWriter serializes Write calls: slog handlers issue one Write per
// record, but concurrent queries share the destination.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// NewEventLog returns an event log writing JSON lines to w.
func NewEventLog(w io.Writer, opt Config) *EventLog {
	h := slog.NewJSONHandler(&lockedWriter{w: w}, nil)
	return &EventLog{log: slog.New(h), opt: opt}
}

// aggLine is one aggregate's encoding inside an event-log record.
type aggLine struct {
	Group     string  `json:"group,omitempty"`
	Name      string  `json:"name"`
	Estimate  float64 `json:"estimate"`
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	RelErr    float64 `json:"rel_err"`
	Technique string  `json:"technique"`
	// Verdict is the runtime diagnostic's decision: "accept" or "reject".
	Verdict string `json:"verdict"`
	Exact   bool   `json:"exact,omitempty"`
}

// Emit writes one record. Slow queries (total latency past the threshold),
// miscalibrated queries (a rejected verdict, or relative error past
// MaxRelErr) and failed queries log at Warn; everything else at Info.
// Non-finite aggregate values are encoded through Finite and FiniteRel.
func (l *EventLog) Emit(q *FinishedQuery) {
	if l == nil {
		return
	}
	t := q.Trace
	slow := t.TotalMs >= l.opt.slowMs()
	miscal := false
	aggs := make([]aggLine, len(q.Aggs))
	for i, a := range q.Aggs {
		if a.Rejected || l.opt.MaxRelErr > 0 && a.RelErr > l.opt.MaxRelErr {
			miscal = true
		}
		verdict := "accept"
		if a.Rejected {
			verdict = "reject"
		}
		aggs[i] = aggLine{Group: a.Group, Name: a.Name, Estimate: Finite(a.Estimate),
			Lo: Finite(a.Lo()), Hi: Finite(a.Hi()), RelErr: FiniteRel(a.RelErr),
			Technique: a.Technique, Verdict: verdict, Exact: a.Exact}
	}
	kind := q.Kind
	if kind == "" {
		kind = "query"
	}
	attrs := []slog.Attr{
		slog.String("kind", kind),
		slog.Uint64("qid", t.ID),
		slog.String("sql", t.SQL),
		slog.String("outcome", t.Outcome),
		slog.Float64("total_ms", t.TotalMs),
	}
	if t.TraceID != "" {
		attrs = append(attrs, slog.String("trace_id", t.TraceID))
	}
	if t.QueueWaitMs > 0 {
		attrs = append(attrs, slog.Float64("queue_wait_ms", t.QueueWaitMs))
	}
	if q.SampleRows > 0 {
		attrs = append(attrs, slog.Int("sample_rows", q.SampleRows))
	}
	if q.KBudget > 0 {
		attrs = append(attrs, slog.Int("bootstrap_k", q.KBudget))
	}
	if q.FellBack {
		attrs = append(attrs, slog.Bool("fell_back", true))
	}
	if q.SharedScan {
		attrs = append(attrs, slog.Bool("shared_scan", true))
	}
	if q.Cached {
		attrs = append(attrs, slog.Bool("cached", true))
	}
	for _, c := range q.Counters {
		if c.N > 0 {
			attrs = append(attrs, slog.Int64(c.Key, c.N))
		}
	}
	if slow {
		attrs = append(attrs, slog.Bool("slow", true))
	}
	if miscal {
		attrs = append(attrs, slog.Bool("miscalibrated", true))
	}
	if t.Err != "" {
		attrs = append(attrs, slog.String("error", t.Err))
	}
	if len(q.StagesMs) > 0 {
		attrs = append(attrs, slog.Any("stages_ms", q.StagesMs))
	}
	if len(aggs) > 0 {
		attrs = append(attrs, slog.Any("aggs", aggs))
	}
	level := slog.LevelInfo
	if slow || miscal || t.Outcome == "error" {
		level = slog.LevelWarn
	}
	l.log.LogAttrs(context.Background(), level, "query", attrs...)
}

// ConnEvent is one connection-lifecycle record from a network front end:
// a MySQL-wire connection opening or closing, an auth failure, a protocol
// violation, or a connection-limit rejection. It lands in the same JSON
// event stream as query records, distinguished by kind=conn.
type ConnEvent struct {
	// Transport is the listener that produced the event: "mysql" | "http".
	Transport string
	// ConnID is the listener-scoped connection id (the id the MySQL
	// handshake advertised); zero for transports without one.
	ConnID uint64
	// Remote is the peer address.
	Remote string
	// User is the authenticated user, when known.
	User string
	// Event is the lifecycle step: "open" | "close" | "auth_error" |
	// "protocol_error" | "too_many_connections".
	Event string
	// Queries counts commands served over the connection (close events).
	Queries int64
	// DurMs is the connection's lifetime (close events).
	DurMs float64
	// Err carries the error that ended or rejected the connection.
	Err string
}

// EmitConn writes one connection-lifecycle record. Errors (auth failures,
// protocol violations, limit rejections, or any event carrying Err) log
// at Warn, clean opens and closes at Info.
func (l *EventLog) EmitConn(ev ConnEvent) {
	if l == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("kind", "conn"),
		slog.String("transport", ev.Transport),
		slog.String("event", ev.Event),
	}
	if ev.ConnID != 0 {
		attrs = append(attrs, slog.Uint64("conn_id", ev.ConnID))
	}
	if ev.Remote != "" {
		attrs = append(attrs, slog.String("remote", ev.Remote))
	}
	if ev.User != "" {
		attrs = append(attrs, slog.String("user", ev.User))
	}
	if ev.Queries > 0 {
		attrs = append(attrs, slog.Int64("queries", ev.Queries))
	}
	if ev.DurMs > 0 {
		attrs = append(attrs, slog.Float64("dur_ms", ev.DurMs))
	}
	if ev.Err != "" {
		attrs = append(attrs, slog.String("error", ev.Err))
	}
	level := slog.LevelInfo
	if ev.Err != "" || ev.Event == "auth_error" ||
		ev.Event == "protocol_error" || ev.Event == "too_many_connections" {
		level = slog.LevelWarn
	}
	l.log.LogAttrs(context.Background(), level, "conn", attrs...)
}
