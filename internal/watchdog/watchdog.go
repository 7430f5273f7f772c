// Package watchdog is the engine's online calibration monitor: the
// production analogue of the paper's runtime diagnostic, lifted from one
// query to the aggregate picture. The per-query diagnostic (§4) asks "can
// this error estimate be trusted for this query?"; the watchdog asks the
// operator's question — "are the 95% intervals we have been reporting
// actually covering the truth 95% of the time, and is the reject rate
// drifting?" — and answers it with ground truth, not extrapolation.
//
// It keeps rolling windows of diagnostic verdicts, relative CI widths and
// estimator outcomes keyed by (aggregate, sample), re-executes a
// configurable fraction of served queries exactly in the background (the
// audit ladder: truth is affordable occasionally, so spend it where it
// pays), and compares rolling empirical coverage against the nominal
// level under a binomial tolerance band. Coverage outside the band, or a
// reject rate drifting from its baseline, is raised straight onto the
// alert bus (internal/obs/alert, source "watchdog") on every check while
// it holds, and resolved there when it clears: the bus alone owns the
// alert episodes, and /debug/calibration reads them back from it.
//
// The watchdog consumes no engine randomness and never touches answers:
// it observes finished queries and re-runs them through the engine's
// exact path, whose results are deterministic. Telemetry-on and
// telemetry-off answers are bit-identical (asserted by core's tests).
package watchdog

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/obs/alert"
)

// Key identifies one calibration population: an aggregate output (the
// alias, e.g. "AVG(Time)") answered on one sample (the row count as a
// string, or "exact" for full-data answers).
type Key struct {
	Agg    string `json:"agg"`
	Sample string `json:"sample"`
}

func (k Key) String() string { return k.Agg + "@" + k.Sample }

// AggInstance identifies one aggregate output within a query for audit
// matching: the exact re-execution returns one truth value per instance.
type AggInstance struct {
	Group string
	Agg   string
}

// AuditFunc re-executes the query exactly and returns the ground-truth
// value of every aggregate output. The engine binds its exact execution
// path here; tests bind synthetic truths.
type AuditFunc func(ctx context.Context, q *obs.FinishedQuery) (map[AggInstance]float64, error)

// AuditObserver receives every audit outcome. It runs outside the
// watchdog's lock, after the outcome has entered the coverage windows; a
// slow observer delays subsequent audits, never the serving path.
type AuditObserver func(obs.AuditOutcome)

// AlertKind types the watchdog's alerts.
type AlertKind string

// Alert kinds. Undercoverage is the dangerous direction — the paper's
// "optimistic and incorrect" intervals (Fig. 1's closed-form-on-MIN/MAX
// failure mode); overcoverage is waste (pessimism); reject-drift means
// the diagnostic's behaviour changed for this key.
const (
	Undercoverage AlertKind = "undercoverage"
	Overcoverage  AlertKind = "overcoverage"
	RejectDrift   AlertKind = "reject-drift"
)

// source is the watchdog's alert.Alert.Source.
const source = "watchdog"

// severity grades a kind: undercoverage is critical, overcoverage and
// reject drift are warnings.
func (k AlertKind) severity() alert.Severity {
	if k == Undercoverage {
		return alert.SeverityCritical
	}
	return alert.SeverityWarning
}

// auditQueue bounds the background audit queue; audits beyond it are
// dropped and counted.
const auditQueue = 64

// Config tunes a Watchdog. Zero values select the defaults.
type Config struct {
	// Window is the rolling window length per key, in trials (0 = 200).
	Window int
	// MinAudits is the minimum audited trials in a key's window before
	// coverage alerting engages (0 = 20) — below it the binomial band is
	// too wide to mean anything.
	MinAudits int
	// AuditFraction is the fraction of served queries re-executed
	// exactly: every ceil(1/fraction)-th observation is audited, a
	// deterministic cadence that consumes no randomness (0 = no audits;
	// cap 1 = every query).
	AuditFraction float64
	// Nominal is the confidence level the reported intervals claim
	// (0 = 0.95). Empirical coverage is compared against it.
	Nominal float64
	// Tolerance is the z-multiplier of the binomial standard error that
	// widths the acceptance band (0 = 3, a three-sigma band).
	Tolerance float64
	// Metrics, when non-nil, receives the aqp_calibration_* series.
	Metrics *obs.Registry
	// Alerts receives the watchdog's alerts (source "watchdog"). Nil
	// builds a private bus metered on Metrics, so Status still shows
	// firing alerts.
	Alerts *alert.Bus
	// Synchronous runs audits inline inside Observe instead of on the
	// background worker — deterministic for tests; production keeps the
	// default background mode so audits never add latency to the serving
	// path.
	Synchronous bool
}

func (c Config) window() int {
	if c.Window <= 0 {
		return 200
	}
	return c.Window
}

func (c Config) minAudits() int {
	if c.MinAudits <= 0 {
		return 20
	}
	return c.MinAudits
}

func (c Config) nominal() float64 {
	if c.Nominal <= 0 {
		return 0.95
	}
	return c.Nominal
}

func (c Config) tolerance() float64 {
	if c.Tolerance <= 0 {
		return 3
	}
	return c.Tolerance
}

// stride converts the audit fraction to a deterministic cadence.
func (c Config) stride() uint64 {
	f := c.AuditFraction
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return 1
	}
	return uint64(math.Ceil(1 / f))
}

// Band returns the binomial tolerance band around an expected proportion
// p for n trials: p ± z·sqrt(p(1−p)/n), clamped to [0,1]. An observed
// proportion strictly outside the band is out of tolerance; landing
// exactly on an edge is within tolerance, so threshold tests at window
// edges are not flaky.
func Band(p float64, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	half := z * math.Sqrt(p*(1-p)/float64(n))
	lo, hi = p-half, p+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// driftHalfWidth is the tolerance half-width for reject-rate drift around
// baseline rate r over a window of n trials: the binomial band plus a
// floor of 5/n so a zero-variance baseline (no rejects ever seen) still
// tolerates a handful of rejects per window before alerting.
func driftHalfWidth(r float64, n int, z float64) float64 {
	half := z * math.Sqrt(r*(1-r)/float64(n))
	if floor := 5 / float64(n); half < floor {
		half = floor
	}
	return half
}

// boolWindow is a rolling window of boolean trials with lifetime totals.
type boolWindow struct {
	buf   []bool
	next  int
	n     int
	trues int

	total      int64
	truesTotal int64
}

func newBoolWindow(size int) *boolWindow { return &boolWindow{buf: make([]bool, size)} }

func (w *boolWindow) push(v bool) {
	if w.n == len(w.buf) {
		if w.buf[w.next] {
			w.trues--
		}
	} else {
		w.n++
	}
	w.buf[w.next] = v
	if v {
		w.trues++
		w.truesTotal++
	}
	w.next = (w.next + 1) % len(w.buf)
	w.total++
}

// rate returns the windowed proportion of true trials and the window
// count.
func (w *boolWindow) rate() (float64, int) {
	if w.n == 0 {
		return 0, 0
	}
	return float64(w.trues) / float64(w.n), w.n
}

// floatWindow is a rolling window of float trials (relative CI widths).
type floatWindow struct {
	buf  []float64
	next int
	n    int
	sum  float64
}

func newFloatWindow(size int) *floatWindow { return &floatWindow{buf: make([]float64, size)} }

func (w *floatWindow) push(v float64) {
	if w.n == len(w.buf) {
		w.sum -= w.buf[w.next]
	} else {
		w.n++
	}
	w.buf[w.next] = v
	w.sum += v
	w.next = (w.next + 1) % len(w.buf)
}

func (w *floatWindow) mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

// keyState is the rolling record for one (aggregate, sample) key.
type keyState struct {
	verdicts *boolWindow // true = diagnostic rejected
	coverage *boolWindow // true = audited interval covered the truth
	relWidth *floatWindow
	// baselineRejects is the reject rate over the key's first full
	// window, frozen once the window fills — the reference that "drift"
	// is measured against.
	baselineRejects float64
	baselineSet     bool
	techniques      map[string]int64
	// raised holds the kinds raised on the bus and not yet resolved, so
	// in-band checks skip no-op resolves.
	raised map[AlertKind]bool
}

// transition is one bus call decided under the watchdog's lock and made
// after it is released.
type transition struct {
	alert   alert.Alert
	resolve bool
}

// Watchdog monitors calibration online. Construct with New; a nil
// *Watchdog is a no-op observer, so callers thread it unconditionally.
type Watchdog struct {
	cfg      Config
	bus      *alert.Bus
	audit    AuditFunc
	observer AuditObserver

	mu       sync.Mutex
	keys     map[Key]*keyState
	keyOrder []Key
	seq      uint64
	pending  []transition // queued bus calls, made outside mu in order
	flushing bool         // a goroutine is making the pending bus calls

	auditCh chan *obs.FinishedQuery
	wg      sync.WaitGroup
	closed  bool

	mObs       *obs.Counter
	mAudits    func(result string) *obs.Counter
	mDropped   *obs.Counter
	mCoverage  func(k Key) *obs.GaugeF
	mReject    func(k Key) *obs.GaugeF
	mRelWidth  func(k Key) *obs.GaugeF
	mAuditLagN *obs.Gauge // queued background audits
}

// New returns a watchdog. Bind an auditor before observing if
// AuditFraction > 0; without one, audits are skipped and counted as
// errors.
func New(cfg Config) *Watchdog {
	reg := cfg.Metrics
	bus := cfg.Alerts
	if bus == nil {
		bus = alert.New(alert.Config{Metrics: reg})
	}
	w := &Watchdog{
		cfg:  cfg,
		bus:  bus,
		keys: map[Key]*keyState{},
		mObs: reg.Counter("aqp_calibration_observations_total",
			"Queries observed by the calibration watchdog."),
		mAudits: func(result string) *obs.Counter {
			return reg.Counter("aqp_calibration_audits_total",
				"Audit re-executions, by result.", "result", result)
		},
		mDropped: reg.Counter("aqp_calibration_audit_dropped_total",
			"Audits dropped because the background queue was full."),
		mCoverage: func(k Key) *obs.GaugeF {
			return reg.GaugeFloat("aqp_calibration_coverage",
				"Rolling empirical coverage of reported intervals vs audited truth.",
				"agg", k.Agg, "sample", k.Sample)
		},
		mReject: func(k Key) *obs.GaugeF {
			return reg.GaugeFloat("aqp_calibration_reject_rate",
				"Rolling diagnostic reject rate.", "agg", k.Agg, "sample", k.Sample)
		},
		mRelWidth: func(k Key) *obs.GaugeF {
			return reg.GaugeFloat("aqp_calibration_rel_width",
				"Rolling mean relative CI half-width.", "agg", k.Agg, "sample", k.Sample)
		},
		mAuditLagN: reg.Gauge("aqp_calibration_audit_queue",
			"Background audits waiting to run."),
	}
	reg.GaugeFloat("aqp_calibration_nominal",
		"Nominal coverage level the watchdog holds intervals to.").Set(cfg.nominal())
	if !cfg.Synchronous && cfg.stride() > 0 {
		w.auditCh = make(chan *obs.FinishedQuery, auditQueue)
		w.wg.Add(1)
		go w.auditWorker()
	}
	return w
}

// Bind sets the audit executor. Call once, before the first Observe;
// the engine binds its exact path here at construction.
func (w *Watchdog) Bind(fn AuditFunc) {
	if w == nil {
		return
	}
	w.audit = fn
}

// SetAuditObserver registers a sink for audit outcomes. Call once,
// before the first Observe, alongside Bind.
func (w *Watchdog) SetAuditObserver(fn AuditObserver) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.observer = fn
	w.mu.Unlock()
}

// Close stops the background audit worker, draining queued audits.
func (w *Watchdog) Close() {
	if w == nil {
		return
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	if w.auditCh != nil {
		close(w.auditCh)
		w.wg.Wait()
	}
}

// Observe records one served query: verdicts, CI widths and technique
// counts enter the rolling windows immediately; if the deterministic
// audit cadence selects this query, it is re-executed exactly (inline
// when Synchronous, otherwise on the background worker) and its coverage
// outcome enters the window when the audit completes. The watchdog keeps
// q for the audit; callers must not modify it afterwards.
func (w *Watchdog) Observe(q *obs.FinishedQuery) {
	if w == nil {
		return
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.seq++
	seq := w.seq
	sample := q.Sample()
	for _, a := range q.Aggs {
		k := Key{Agg: a.Name, Sample: sample}
		st := w.key(k)
		st.verdicts.push(a.Rejected)
		if rel := interval(a).RelativeError(); !math.IsNaN(rel) && !math.IsInf(rel, 0) {
			st.relWidth.push(rel)
		}
		st.techniques[a.Technique]++
		rate, _ := st.verdicts.rate()
		w.mReject(k).Set(rate)
		w.mRelWidth(k).Set(st.relWidth.mean())
		w.checkRejectDriftLocked(k, st)
	}
	stride := w.cfg.stride()
	doAudit := stride > 0 && seq%stride == 0
	w.mu.Unlock()
	w.flush()
	w.mObs.Inc()

	if !doAudit {
		return
	}
	if w.cfg.Synchronous || w.auditCh == nil {
		w.runAudit(q)
		return
	}
	select {
	case w.auditCh <- q:
		w.mAuditLagN.Inc()
	default:
		w.mDropped.Inc()
	}
}

// interval rebuilds an aggregate's reported confidence interval.
func interval(a obs.AggOutcome) estimator.Interval {
	return estimator.Interval{Center: a.Center, HalfWidth: a.HalfWidth}
}

// key returns (creating on first use) the state for k; caller holds mu.
func (w *Watchdog) key(k Key) *keyState {
	st, ok := w.keys[k]
	if !ok {
		size := w.cfg.window()
		st = &keyState{
			verdicts:   newBoolWindow(size),
			coverage:   newBoolWindow(size),
			relWidth:   newFloatWindow(size),
			techniques: map[string]int64{},
			raised:     map[AlertKind]bool{},
		}
		w.keys[k] = st
		w.keyOrder = append(w.keyOrder, k)
	}
	return st
}

func (w *Watchdog) auditWorker() {
	defer w.wg.Done()
	for q := range w.auditCh {
		w.mAuditLagN.Dec()
		w.runAudit(q)
	}
}

// runAudit re-executes one query exactly and folds per-aggregate coverage
// into the rolling windows.
func (w *Watchdog) runAudit(q *obs.FinishedQuery) {
	if w.audit == nil {
		w.mAudits("error").Inc()
		return
	}
	truths, err := w.audit(context.Background(), q)
	if err != nil {
		w.mAudits("error").Inc()
		return
	}
	var outcomes []obs.AuditOutcome
	sample := q.Sample()
	w.mu.Lock()
	observer := w.observer
	for _, a := range q.Aggs {
		if a.Exact || math.IsNaN(a.HalfWidth) {
			continue // no estimated interval to hold to account
		}
		truth, ok := truths[AggInstance{Group: a.Group, Agg: a.Name}]
		if !ok {
			continue
		}
		covered := interval(a).Contains(truth)
		k := Key{Agg: a.Name, Sample: sample}
		st := w.key(k)
		st.coverage.push(covered)
		if covered {
			w.mAudits("covered").Inc()
		} else {
			w.mAudits("missed").Inc()
		}
		cov, _ := st.coverage.rate()
		w.mCoverage(k).Set(cov)
		w.checkCoverageLocked(k, st)
		if observer != nil {
			outcomes = append(outcomes, obs.AuditOutcome{Query: q, Agg: a, Truth: truth, Covered: covered})
		}
	}
	w.mu.Unlock()
	w.flush()
	for _, o := range outcomes {
		observer(o)
	}
}

// flush makes the queued bus calls outside the lock, in the order they
// were decided. One goroutine flushes at a time; a caller that finds a
// flush under way leaves its calls to it, so a slow sink delays one
// caller, never another's critical section.
func (w *Watchdog) flush() {
	w.mu.Lock()
	if w.flushing {
		w.mu.Unlock()
		return
	}
	w.flushing = true
	for len(w.pending) > 0 {
		pend := w.pending
		w.pending = nil
		w.mu.Unlock()
		for _, t := range pend {
			if t.resolve {
				w.bus.Resolve(t.alert.Source, t.alert.Kind, t.alert.Key)
			} else {
				w.bus.Raise(t.alert)
			}
		}
		w.mu.Lock()
	}
	w.flushing = false
	w.mu.Unlock()
}

// checkCoverageLocked re-evaluates the coverage alert for one key; caller
// holds mu.
func (w *Watchdog) checkCoverageLocked(k Key, st *keyState) {
	cov, n := st.coverage.rate()
	if n < w.cfg.minAudits() {
		return
	}
	nominal := w.cfg.nominal()
	lo, hi := Band(nominal, n, w.cfg.tolerance())
	switch {
	case cov < lo:
		w.raiseLocked(Undercoverage, k, st, cov, nominal, fmt.Sprintf(
			"%s: empirical coverage %.3f below binomial tolerance [%.3f, %.3f] of nominal %.2f over %d audits — reported intervals are too narrow",
			k, cov, lo, hi, nominal, n))
	case cov > hi:
		w.raiseLocked(Overcoverage, k, st, cov, nominal, fmt.Sprintf(
			"%s: empirical coverage %.3f above binomial tolerance [%.3f, %.3f] of nominal %.2f over %d audits — reported intervals are wastefully wide",
			k, cov, lo, hi, nominal, n))
	default:
		w.resolveLocked(Undercoverage, k, st)
		w.resolveLocked(Overcoverage, k, st)
	}
}

// checkRejectDriftLocked re-evaluates the reject-drift alert for one key;
// caller holds mu. The key's first full window freezes the baseline; the
// rolling rate is then held to baseline ± driftHalfWidth.
func (w *Watchdog) checkRejectDriftLocked(k Key, st *keyState) {
	rate, n := st.verdicts.rate()
	if !st.baselineSet {
		if n == w.cfg.window() {
			st.baselineRejects = rate
			st.baselineSet = true
		}
		return
	}
	half := driftHalfWidth(st.baselineRejects, n, w.cfg.tolerance())
	lo, hi := st.baselineRejects-half, st.baselineRejects+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	if rate < lo || rate > hi {
		w.raiseLocked(RejectDrift, k, st, rate, st.baselineRejects, fmt.Sprintf(
			"%s: rolling reject rate %.3f drifted outside [%.3f, %.3f] around baseline %.3f over %d queries",
			k, rate, lo, hi, st.baselineRejects, n))
	} else {
		w.resolveLocked(RejectDrift, k, st)
	}
}

// raiseLocked queues a raise of a condition that holds; every check
// that finds it out of band raises again, so the bus episode's Observed,
// Count and LastSeen track the current window. Caller holds mu.
func (w *Watchdog) raiseLocked(kind AlertKind, k Key, st *keyState, observed, expected float64, msg string) {
	st.raised[kind] = true
	w.pending = append(w.pending, transition{alert: alert.Alert{
		Source: source, Kind: string(kind), Key: k.String(),
		Severity: kind.severity(), Message: msg,
		Observed: observed, Expected: expected,
		Labels: map[string]string{"agg": k.Agg, "sample": k.Sample},
	}})
}

// resolveLocked queues the resolve of a raised condition that has
// cleared. Caller holds mu.
func (w *Watchdog) resolveLocked(kind AlertKind, k Key, st *keyState) {
	if !st.raised[kind] {
		return
	}
	delete(st.raised, kind)
	w.pending = append(w.pending, transition{
		alert: alert.Alert{Source: source, Kind: string(kind), Key: k.String()}, resolve: true,
	})
}
