package watchdog

import (
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/obs/alert"
)

// rec builds a one-aggregate finished query on a 1000-row sample; the
// truth map key is {"", "A"}.
func rec(sql string, rejected bool, iv estimator.Interval) *obs.FinishedQuery {
	return &obs.FinishedQuery{Trace: obs.TraceSnapshot{SQL: sql}, SampleRows: 1000,
		Aggs: []obs.AggOutcome{{
			Name: "A", Center: iv.Center, HalfWidth: iv.HalfWidth,
			Technique: "closed-form", Rejected: rejected,
		}}}
}

// coverAudit returns an AuditFunc whose truth covers the unit interval
// around zero for SQL containing "cover" and misses it otherwise.
func coverAudit() AuditFunc {
	return func(_ context.Context, q *obs.FinishedQuery) (map[AggInstance]float64, error) {
		truth := 10.0
		if strings.Contains(q.Trace.SQL, "cover") {
			truth = 0
		}
		return map[AggInstance]float64{{Agg: "A"}: truth}, nil
	}
}

// withBus builds a watchdog raising onto a bus the test reads.
func withBus(cfg Config) (*Watchdog, *alert.Bus) {
	bus := alert.New(alert.Config{})
	cfg.Alerts = bus
	return New(cfg), bus
}

// onlyKey returns the watchdog's single key status.
func onlyKey(t *testing.T, w *Watchdog) KeyStatus {
	t.Helper()
	st := w.Status()
	if len(st.Keys) != 1 {
		t.Fatalf("keys = %+v, want one", st.Keys)
	}
	return st.Keys[0]
}

func TestBand(t *testing.T) {
	lo, hi := Band(0.5, 16, 1)
	if lo != 0.375 || hi != 0.625 {
		t.Fatalf("Band(0.5,16,1) = [%v,%v], want [0.375,0.625]", lo, hi)
	}
	if lo, hi := Band(0.95, 0, 3); lo != 0 || hi != 1 {
		t.Fatalf("empty-window band = [%v,%v], want [0,1]", lo, hi)
	}
	if lo, hi := Band(0.95, 4, 3); lo < 0 || hi != 1 {
		t.Fatalf("band not clamped to [0,1]: [%v,%v]", lo, hi)
	}
}

// TestUndercoverageStrictEdge pins the no-flaky-boundaries contract: a
// coverage landing exactly on the band edge does not alert; one more
// missed audit pushes it strictly outside and does.
func TestUndercoverageStrictEdge(t *testing.T) {
	w, bus := withBus(Config{
		Window: 16, MinAudits: 16, AuditFraction: 1,
		Nominal: 0.5, Tolerance: 1, Synchronous: true,
	})
	w.Bind(coverAudit())
	iv := estimator.Interval{Center: 0, HalfWidth: 1}
	// 6 covered then 10 missed: at the 16th audit coverage is 6/16 =
	// 0.375, exactly the band's lower edge for Band(0.5, 16, 1).
	for i := 0; i < 6; i++ {
		w.Observe(rec("cover", false, iv))
	}
	for i := 0; i < 10; i++ {
		w.Observe(rec("miss", false, iv))
	}
	if alerts := bus.Active(); len(alerts) != 0 {
		t.Fatalf("coverage exactly on the band edge alerted: %+v", alerts)
	}
	// One more miss evicts a covered trial: 5/16 = 0.3125 < 0.375.
	w.Observe(rec("miss", false, iv))
	alerts := bus.Active()
	if len(alerts) != 1 || alerts[0].Kind != string(Undercoverage) {
		t.Fatalf("alerts = %+v, want one undercoverage", alerts)
	}
	a, k := alerts[0], onlyKey(t, w)
	if a.Source != "watchdog" || a.Key != "A@1000" || a.Severity != alert.SeverityCritical ||
		a.Labels["agg"] != "A" || a.Labels["sample"] != "1000" || a.Expected != 0.5 {
		t.Fatalf("alert fields off: %+v", a)
	}
	if k.CoverageWindow != 16 || k.CoverageLo != 0.375 || a.Observed >= k.CoverageLo {
		t.Fatalf("alert observed %v against key %+v", a.Observed, k)
	}
	// Refill at the nominal 50% rate until the window re-enters the band;
	// the alert must clear and the episode appear exactly once in history
	// (its firing and its resolved transition).
	for i := 0; i < 8; i++ {
		w.Observe(rec("cover", false, iv))
		w.Observe(rec("miss", false, iv))
	}
	if alerts := bus.Active(); len(alerts) != 0 {
		t.Fatalf("alert did not clear after recovery: %+v", alerts)
	}
	h := bus.History()
	if len(h) != 2 || h[0].Kind != string(Undercoverage) || h[1].Kind != string(Undercoverage) ||
		h[0].State != alert.StateFiring || h[1].State != alert.StateResolved {
		t.Fatalf("history = %+v, want exactly one undercoverage episode", h)
	}
}

// TestAlertTracksOngoingCondition: while undercoverage holds, every
// audit re-raises, so the bus episode's Observed follows the current
// window coverage and its Count grows; nothing re-notifies.
func TestAlertTracksOngoingCondition(t *testing.T) {
	w, bus := withBus(Config{
		Window: 16, MinAudits: 16, AuditFraction: 1,
		Nominal: 0.5, Tolerance: 1, Synchronous: true,
	})
	w.Bind(coverAudit())
	iv := estimator.Interval{Center: 0, HalfWidth: 1}
	for i := 0; i < 6; i++ {
		w.Observe(rec("cover", false, iv))
	}
	for i := 0; i < 11; i++ { // fires at 5/16
		w.Observe(rec("miss", false, iv))
	}
	for i := 0; i < 2; i++ { // 4/16, then 3/16
		w.Observe(rec("miss", false, iv))
	}
	act := bus.Active()
	if len(act) != 1 {
		t.Fatalf("active = %+v, want one episode", act)
	}
	k := onlyKey(t, w)
	if k.Coverage != 3.0/16 || act[0].Observed != k.Coverage {
		t.Fatalf("episode observed %v, key coverage %v, want both 3/16", act[0].Observed, k.Coverage)
	}
	if act[0].Count != 3 {
		t.Fatalf("episode count = %d, want 3 (one raise per audit while it held)", act[0].Count)
	}
	if !strings.Contains(act[0].Message, "0.188") {
		t.Fatalf("episode message not refreshed: %q", act[0].Message)
	}
	if h := bus.History(); len(h) != 1 {
		t.Fatalf("history = %+v, want the one firing transition", h)
	}
}

// TestStatusShowsAlertsWithoutBus: a watchdog built with no bus raises
// onto a private one, and Status still shows what is firing.
func TestStatusShowsAlertsWithoutBus(t *testing.T) {
	w := New(Config{Window: 10, Tolerance: 1, Synchronous: true})
	iv := estimator.Interval{Center: 1, HalfWidth: 0.1}
	for i := 0; i < 10; i++ {
		w.Observe(rec("q", false, iv))
	}
	for i := 0; i < 6; i++ {
		w.Observe(rec("q", true, iv))
	}
	st := w.Status()
	if len(st.ActiveAlerts) != 1 || st.ActiveAlerts[0].Kind != string(RejectDrift) ||
		st.ActiveAlerts[0].State != alert.StateFiring || st.ActiveAlerts[0].Severity != alert.SeverityWarning {
		t.Fatalf("active = %+v, want one firing reject-drift", st.ActiveAlerts)
	}
	if len(st.History) != 1 || st.History[0].Seq != st.ActiveAlerts[0].Seq {
		t.Fatalf("history = %+v, want the firing transition", st.History)
	}
}

func TestOvercoverageStrictEdge(t *testing.T) {
	w, bus := withBus(Config{
		Window: 16, MinAudits: 16, AuditFraction: 1,
		Nominal: 0.5, Tolerance: 1, Synchronous: true,
	})
	w.Bind(coverAudit())
	iv := estimator.Interval{Center: 0, HalfWidth: 1}
	// 6 missed then 10 covered: 10/16 = 0.625, exactly the upper edge.
	for i := 0; i < 6; i++ {
		w.Observe(rec("miss", false, iv))
	}
	for i := 0; i < 10; i++ {
		w.Observe(rec("cover", false, iv))
	}
	if alerts := bus.Active(); len(alerts) != 0 {
		t.Fatalf("coverage exactly on the band edge alerted: %+v", alerts)
	}
	// One more covered evicts a miss: 11/16 > 0.625.
	w.Observe(rec("cover", false, iv))
	alerts := bus.Active()
	if len(alerts) != 1 || alerts[0].Kind != string(Overcoverage) ||
		alerts[0].Severity != alert.SeverityWarning {
		t.Fatalf("alerts = %+v, want one overcoverage warning", alerts)
	}
}

// TestRejectDriftFloorEdge: with a zero-reject baseline the drift band's
// 5/W floor tolerates exactly half the window at W=10; the 5th reject sits
// on the edge (quiet), the 6th drifts out.
func TestRejectDriftFloorEdge(t *testing.T) {
	w, bus := withBus(Config{Window: 10, Tolerance: 1, Synchronous: true})
	iv := estimator.Interval{Center: 1, HalfWidth: 0.1}
	for i := 0; i < 10; i++ {
		w.Observe(rec("q", false, iv)) // freeze baseline at 0 rejects
	}
	for i := 0; i < 5; i++ {
		w.Observe(rec("q", true, iv))
	}
	if alerts := bus.Active(); len(alerts) != 0 {
		t.Fatalf("reject rate exactly on the floor edge alerted: %+v", alerts)
	}
	w.Observe(rec("q", true, iv)) // 6/10 > 0.5
	alerts := bus.Active()
	if len(alerts) != 1 || alerts[0].Kind != string(RejectDrift) {
		t.Fatalf("alerts = %+v, want one reject-drift", alerts)
	}
	k := onlyKey(t, w)
	hi := k.BaselineRejectRate + driftHalfWidth(k.BaselineRejectRate, k.RejectWindow, 1)
	if alerts[0].Expected != 0 || k.BaselineRejectRate != 0 || hi != 0.5 ||
		alerts[0].Observed != 0.6 || !strings.Contains(alerts[0].Message, "[0.000, 0.500]") {
		t.Fatalf("drift band off: %+v against key %+v", alerts[0], k)
	}
}

// TestConcurrentAlertsMatchBus: with queries observed from several
// goroutines and audits on the background worker, conditions flip many
// times; once everything has returned, the bus fires exactly the (kind,
// key) pairs the watchdog last raised, so no resolve overtook its raise.
func TestConcurrentAlertsMatchBus(t *testing.T) {
	w, bus := withBus(Config{Window: 10, MinAudits: 4, AuditFraction: 1, Nominal: 0.5, Tolerance: 1})
	w.Bind(coverAudit())
	iv := estimator.Interval{Center: 0, HalfWidth: 1}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				burst := (i/10+g)%2 == 0
				sql := "miss"
				if burst {
					sql = "cover"
				}
				w.Observe(rec(sql, burst, iv))
			}
		}(g)
	}
	wg.Wait()
	w.Close()

	firing := map[string]bool{}
	for _, ev := range bus.Active() {
		firing[ev.Kind+" "+ev.Key] = true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for k, st := range w.keys {
		for _, kind := range []AlertKind{Undercoverage, Overcoverage, RejectDrift} {
			id := string(kind) + " " + k.String()
			if firing[id] != st.raised[kind] {
				t.Errorf("%s: bus firing %v, watchdog raised %v", id, firing[id], st.raised[kind])
			}
		}
	}
	if len(bus.History()) < 2 {
		t.Fatalf("conditions never flipped: history %+v", bus.History())
	}
}

func TestAuditStrideDeterministic(t *testing.T) {
	var calls atomic.Int64
	w := New(Config{Window: 100, AuditFraction: 0.25, Synchronous: true})
	w.Bind(func(context.Context, *obs.FinishedQuery) (map[AggInstance]float64, error) {
		calls.Add(1)
		return map[AggInstance]float64{{Agg: "A"}: 0}, nil
	})
	iv := estimator.Interval{Center: 0, HalfWidth: 1}
	for i := 0; i < 8; i++ {
		w.Observe(rec("q", false, iv))
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("audited %d of 8 at fraction 1/4, want exactly 2", got)
	}
}

func TestExactAndNaNAggsSkipCoverage(t *testing.T) {
	var calls atomic.Int64
	w := New(Config{Window: 10, MinAudits: 1, AuditFraction: 1, Synchronous: true})
	w.Bind(func(context.Context, *obs.FinishedQuery) (map[AggInstance]float64, error) {
		calls.Add(1)
		return map[AggInstance]float64{{Agg: "A"}: 1e9}, nil
	})
	w.Observe(&obs.FinishedQuery{Trace: obs.TraceSnapshot{SQL: "q"}, Aggs: []obs.AggOutcome{{
		Name: "A", Exact: true, Center: 1,
	}}})
	w.Observe(&obs.FinishedQuery{Trace: obs.TraceSnapshot{SQL: "q"}, SampleRows: 1000, Aggs: []obs.AggOutcome{{
		Name: "A", Center: 1, HalfWidth: math.NaN(),
	}}})
	st := w.Status()
	for _, k := range st.Keys {
		if k.CoverageWindow != 0 {
			t.Fatalf("exact/NaN agg entered the coverage window: %+v", k)
		}
	}
	if len(st.ActiveAlerts) != 0 {
		t.Fatalf("unexpected alerts: %+v", st.ActiveAlerts)
	}
}

func TestBackgroundAuditsDrainOnClose(t *testing.T) {
	var calls atomic.Int64
	w := New(Config{Window: 100, AuditFraction: 1})
	w.Bind(func(context.Context, *obs.FinishedQuery) (map[AggInstance]float64, error) {
		calls.Add(1)
		return map[AggInstance]float64{{Agg: "A"}: 0}, nil
	})
	iv := estimator.Interval{Center: 0, HalfWidth: 1}
	for i := 0; i < 10; i++ {
		w.Observe(rec("cover", false, iv))
	}
	w.Close()
	if got := calls.Load(); got != 10 {
		t.Fatalf("Close drained %d audits, want 10", got)
	}
	w.Close() // idempotent
	w.Observe(rec("cover", false, iv))
	if w.Status().Observations != 10 {
		t.Fatal("Observe after Close mutated state")
	}
}

func TestMetricsRendered(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Config{
		Window: 4, MinAudits: 1, AuditFraction: 1,
		Nominal: 0.5, Tolerance: 1, Synchronous: true, Metrics: reg,
	})
	w.Bind(coverAudit())
	iv := estimator.Interval{Center: 0, HalfWidth: 1}
	w.Observe(rec("cover", false, iv))
	w.Observe(rec("miss", true, iv))
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"aqp_calibration_observations_total 2",
		`aqp_calibration_coverage{agg="A",sample="1000"} 0.5`,
		`aqp_calibration_reject_rate{agg="A",sample="1000"} 0.5`,
		"aqp_calibration_nominal 0.5",
		`aqp_calibration_audits_total{result="covered"} 1`,
		`aqp_calibration_audits_total{result="missed"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestNilWatchdogIsNoop(t *testing.T) {
	var w *Watchdog
	w.Observe(rec("q", false, estimator.Interval{}))
	w.Bind(nil)
	w.Close()
	st := w.Status()
	if st.ActiveAlerts != nil || st.History != nil {
		t.Fatal("nil watchdog returned non-nil state")
	}
	if len(st.Keys) != 0 {
		t.Fatal("nil watchdog returned keys")
	}
}

func TestHandlerServesStatus(t *testing.T) {
	w := New(Config{Window: 8, MinAudits: 1, AuditFraction: 1, Synchronous: true})
	w.Bind(coverAudit())
	w.Observe(rec("cover", false, estimator.Interval{Center: 0, HalfWidth: 1}))
	st := w.Status()
	if st.Observations != 1 || len(st.Keys) != 1 {
		t.Fatalf("status = %+v", st)
	}
	k := st.Keys[0]
	if k.Coverage != 1 || k.CoverageWindow != 1 || k.AuditsTotal != 1 {
		t.Fatalf("key status = %+v", k)
	}
}
