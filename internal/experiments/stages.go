package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/table"
)

// stageQueries are the representative pipeline shapes the stage breakdown
// covers: a closed-form aggregate (no resamples), a filtered scaled sum, a
// bootstrap-only percentile, a GROUP BY fan-out, and a MAX whose diagnostic
// rejects and triggers the exact fallback.
var stageQueries = []string{
	"SELECT AVG(X) FROM T",
	"SELECT SUM(X) FROM T WHERE G = 'a'",
	"SELECT PERCENTILE(X, 0.95) FROM T",
	"SELECT AVG(X) FROM T GROUP BY G",
	"SELECT MAX(X) FROM T",
}

// StageQuery is one query's recorded trace.
type StageQuery struct {
	SQL      string             `json:"sql"`
	TotalMs  float64            `json:"total_ms"`
	FellBack bool               `json:"fell_back"`
	Spans    []obs.SpanSnapshot `json:"spans"`
}

// StagesResult is the per-stage latency breakdown of representative queries
// run through the fully traced engine (the local analogue of the paper's
// Figs. 7–9 stacked bars, measured rather than simulated).
type StagesResult struct {
	Queries []StageQuery `json:"queries"`
}

// Stages runs the representative queries through a traced engine and
// returns their span trees. The trace structure (stages, nesting, counter
// attributes) is deterministic under cfg.Seed; only durations vary.
func Stages(cfg Config) *StagesResult {
	src := cfg.stream("stages-data", 0)
	n := cfg.PopulationSize
	xs := make(table.Float64Col, n)
	gs := make(table.StringCol, n)
	names := []string{"a", "b", "c", "d"}
	zipf := rng.NewZipf(src, len(names), 1.1)
	for i := 0; i < n; i++ {
		gs[i] = names[zipf.Next()]
		// Well-behaved skew: closed-form and percentile diagnostics accept,
		// while MAX (an extreme, not estimable from a sample) still rejects
		// and exercises the fallback stage.
		xs[i] = src.LogNormal(4, 0.6)
	}
	tbl := table.MustNew(table.Schema{
		{Name: "X", Type: table.Float64},
		{Name: "G", Type: table.String},
	}, xs, gs)

	cl, err := cluster.New(cluster.Default())
	if err != nil {
		panic(err) // Default() always validates
	}
	tracer := obs.NewTracer(obs.Config{})
	e := core.New(core.Config{
		Seed:       cfg.Seed,
		Workers:    cfg.Workers,
		BootstrapK: cfg.BootstrapK,
		Cluster:    cl,
		Obs:        tracer,
	})
	if err := e.RegisterTable("T", tbl); err != nil {
		panic(err)
	}
	// The diagnostic ladder needs b3 = n/(2·DiagP) ≥ 32 rows and only
	// produces meaningful verdicts well above that floor; quick configs
	// sit under it, so the stage breakdown floors the sample to keep the
	// diagnostic (and the MAX query's fallback) in the trace.
	sampleRows := cfg.SampleSize
	if sampleRows < 24000 {
		sampleRows = 24000
	}
	if sampleRows > n/2 {
		sampleRows = n / 2
	}
	if err := e.BuildSamples("T", sampleRows); err != nil {
		panic(err)
	}

	queries := stageQueries
	if cfg.QueriesPerSet > 0 && cfg.QueriesPerSet < len(queries) {
		queries = queries[:cfg.QueriesPerSet]
	}
	res := &StagesResult{}
	for _, q := range queries {
		ans, err := e.Query(q)
		if err != nil {
			panic(fmt.Sprintf("stages: %v", err))
		}
		tr, ok := tracer.Last()
		if !ok {
			panic("stages: query left no trace")
		}
		res.Queries = append(res.Queries, StageQuery{
			SQL:      q,
			TotalMs:  tr.TotalMs,
			FellBack: ans.FellBack(),
			Spans:    tr.Spans,
		})
	}
	return res
}

// Render implements the aqpbench result interface.
func (r *StagesResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Per-stage latency breakdown (traced pipeline)")
	fmt.Fprintln(w, "=============================================")
	for _, q := range r.Queries {
		note := ""
		if q.FellBack {
			note = "  [fell back to exact]"
		}
		fmt.Fprintf(w, "\n%s%s\n", q.SQL, note)
		for _, s := range q.Spans {
			renderSpan(w, s, 1)
		}
		fmt.Fprintf(w, "  %-18s %9.3fms\n", "total", q.TotalMs)
	}
}

func renderSpan(w io.Writer, s obs.SpanSnapshot, depth int) {
	for i := 0; i < depth; i++ {
		fmt.Fprint(w, "  ")
	}
	fmt.Fprintf(w, "%-18s %9.3fms\n", s.Stage, s.Ms)
	for _, c := range s.Children {
		renderSpan(w, c, depth+1)
	}
}

// WriteCSV emits one row per top-level stage.
func (r *StagesResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "sql,stage,ms"); err != nil {
		return err
	}
	for _, q := range r.Queries {
		for _, s := range q.Spans {
			if _, err := fmt.Fprintf(w, "%q,%s,%.3f\n", q.SQL, s.Stage, s.Ms); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%q,total,%.3f\n", q.SQL, q.TotalMs); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the machine-readable trace export.
func (r *StagesResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// JSONName routes aqpbench's JSON export to a stages-specific file.
func (r *StagesResult) JSONName() string { return "BENCH_stages.json" }
