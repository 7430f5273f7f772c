package obs

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety exercises every exported method through nil receivers: a
// disabled tracer must propagate no-ops through arbitrarily deep chains.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Registry() != nil {
		t.Fatal("nil tracer should return nil registry")
	}
	qt := tr.StartQuery("SELECT 1")
	if qt != nil {
		t.Fatal("nil tracer should return nil query trace")
	}
	s := qt.Root().StartSpan("scan").StartSpan("child")
	s.SetAttr("k", 1)
	s.AddInt("rows", 10)
	s.AddDuration(time.Millisecond)
	s.End()
	s.Metrics().Counter("c", "h").Add(3)
	s.Metrics().Histogram("hh", "h", LatencyBuckets).Observe(1)
	qt.Finish(nil)
	if _, ok := tr.Last(); ok {
		t.Fatal("nil tracer should have no traces")
	}
	if tr.Recent() != nil {
		t.Fatal("nil tracer Recent should be nil")
	}
	var reg *Registry
	reg.Counter("x", "h").Inc()
	reg.WritePrometheus(&strings.Builder{})
}

func TestCounterAndHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("aqp_test_total", "help", "kind", "a")
	c.Add(3)
	c.Inc()
	if got := reg.Counter("aqp_test_total", "help", "kind", "a").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4 (same series must be shared)", got)
	}
	if got := reg.Counter("aqp_test_total", "help", "kind", "b").Value(); got != 0 {
		t.Fatalf("distinct label series not isolated: %d", got)
	}

	h := reg.Histogram("aqp_test_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("histogram count = %d, want 5 (NaN dropped)", h.Count())
	}
	if math.Abs(h.Sum()-55.65) > 1e-9 {
		t.Fatalf("histogram sum = %v, want 55.65", h.Sum())
	}
	// Bucket boundaries are inclusive (Prometheus `le` semantics).
	if got := h.counts[0].Load(); got != 2 {
		t.Fatalf("le=0.1 bucket = %d, want 2 (0.05 and 0.1)", got)
	}
	if got := h.counts[3].Load(); got != 1 {
		t.Fatalf("+Inf overflow bucket = %d, want 1", got)
	}
}

func TestTypeClashDegradesToNoop(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "h").Inc()
	if h := reg.Histogram("m", "h", LatencyBuckets); h != nil {
		t.Fatal("type clash should return a nil no-op histogram")
	}
	if c := reg.Counter("m", "h"); c.Value() != 1 {
		t.Fatal("original counter must survive a type clash")
	}
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[-+]?Inf|[-+0-9.eE]+)$`)

// checkPromText asserts every line of a /metrics payload is a comment or a
// well-formed sample line, and that histograms expose _bucket/_sum/_count.
func checkPromText(t *testing.T, text string) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty exposition")
	}
	for _, ln := range lines {
		if strings.HasPrefix(ln, "# HELP ") || strings.HasPrefix(ln, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(ln) {
			t.Fatalf("malformed exposition line: %q", ln)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("aqp_queries_total", "Queries.", "outcome", "ok").Add(7)
	reg.Counter("aqp_queries_total", "Queries.", "outcome", "error").Add(2)
	h := reg.Histogram("aqp_stage_duration_seconds", "Stage latency.",
		[]float64{0.001, 0.01}, "stage", "scan")
	h.Observe(0.0005)
	h.Observe(0.5)

	var b strings.Builder
	reg.WritePrometheus(&b)
	text := b.String()
	checkPromText(t, text)
	for _, want := range []string{
		`aqp_queries_total{outcome="ok"} 7`,
		`aqp_queries_total{outcome="error"} 2`,
		`aqp_stage_duration_seconds_bucket{stage="scan",le="0.001"} 1`,
		`aqp_stage_duration_seconds_bucket{stage="scan",le="+Inf"} 2`,
		`aqp_stage_duration_seconds_count{stage="scan"} 2`,
		"# TYPE aqp_stage_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "h", "q", "a\"b\\c\nd").Inc()
	var b strings.Builder
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), `q="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped: %s", b.String())
	}
}

func TestConcurrentMetrics(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("c_total", "h").Inc()
				reg.Histogram("h_seconds", "h", LatencyBuckets).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c_total", "h").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := reg.Histogram("h_seconds", "h", LatencyBuckets).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestTraceRingBound(t *testing.T) {
	tr := NewTracer(Config{RingSize: 3})
	for i := 0; i < 5; i++ {
		qt := tr.StartQuery(fmt.Sprintf("q%d", i))
		qt.StartSpan(StageScan).End()
		qt.Finish(nil)
	}
	recent := tr.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring kept %d traces, want 3", len(recent))
	}
	for i, want := range []string{"q4", "q3", "q2"} {
		if recent[i].SQL != want {
			t.Fatalf("recent[%d].SQL = %q, want %q (newest first)", i, recent[i].SQL, want)
		}
	}
	last, ok := tr.Last()
	if !ok || last.ID != 5 {
		t.Fatalf("Last = %+v ok=%v, want trace id 5", last, ok)
	}
}

func TestSpanAttrsAndStructure(t *testing.T) {
	mk := func() TraceSnapshot {
		tr := NewTracer(Config{})
		qt := tr.StartQuery("SELECT AVG(x) FROM t")
		s := qt.StartSpan(StageScan)
		s.AddInt("rows_scanned", 100)
		s.AddInt("rows_scanned", 50)
		s.AddInt("zero", 0) // must not create the attribute
		s.SetAttr("rel_err", math.NaN())
		c := s.StartSpan("part")
		c.SetAttr("idx", 1)
		c.End()
		s.End()
		qt.Finish(nil)
		last, _ := tr.Last()
		return last
	}
	snap := mk()
	scan := snap.Spans[0]
	if scan.Attrs["rows_scanned"] != int64(150) {
		t.Fatalf("AddInt accumulation = %v, want 150", scan.Attrs["rows_scanned"])
	}
	if _, ok := scan.Attrs["zero"]; ok {
		t.Fatal("zero AddInt must not create an attribute")
	}
	if scan.Attrs["rel_err"] != "NaN" {
		t.Fatalf("NaN attr = %v (%T), want JSON-safe string", scan.Attrs["rel_err"], scan.Attrs["rel_err"])
	}
	if len(scan.Children) != 1 || scan.Children[0].Stage != "part" {
		t.Fatalf("child span lost: %+v", scan.Children)
	}
	// Structure is timing-independent: two identical runs agree.
	if a, b := mk().Structure(), mk().Structure(); a != b {
		t.Fatalf("structures differ:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(snap.Structure(), "scan(rel_err=NaN,rows_scanned=150)") {
		t.Fatalf("structure missing attrs: %s", snap.Structure())
	}
}

func TestFinishRecordsMetricsAndOutcome(t *testing.T) {
	tr := NewTracer(Config{})
	qt := tr.StartQuery("boom")
	qt.StartSpan(StageParse).End()
	qt.Finish(errors.New("parse failed"))
	qt.Finish(errors.New("twice")) // idempotent

	if got := tr.Registry().Counter("aqp_queries_total", "", "outcome", "error").Value(); got != 1 {
		t.Fatalf("error outcome counter = %d, want 1", got)
	}
	if got := tr.Registry().Histogram("aqp_stage_duration_seconds", "",
		LatencyBuckets, "stage", StageParse).Count(); got != 1 {
		t.Fatalf("stage histogram count = %d, want 1", got)
	}
	last, _ := tr.Last()
	if last.Err != "parse failed" {
		t.Fatalf("trace error = %q", last.Err)
	}
	if len(tr.Recent()) != 1 {
		t.Fatal("double Finish must record the trace once")
	}
}

func TestFormatTrace(t *testing.T) {
	tr := NewTracer(Config{})
	qt := tr.StartQuery("SELECT 1")
	s := qt.StartSpan(StageScan)
	s.AddInt("rows_scanned", 10)
	s.End()
	qt.Finish(nil)
	last, _ := tr.Last()
	out := FormatTrace(last)
	if !strings.Contains(out, "scan") || !strings.Contains(out, "rows_scanned=10") {
		t.Fatalf("FormatTrace output missing content:\n%s", out)
	}
}
