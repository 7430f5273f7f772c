package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/diagnostic"
	"repro/internal/estimator"
	"repro/internal/exec"
	"repro/internal/kernel"
	"repro/internal/plan"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/sql"
	"repro/internal/table"
	"repro/internal/workload"
)

// bootstrapK and alpha are the engine defaults (core.Config zero values).
const (
	bootstrapK = 100
	alpha      = 0.95
)

// replayer re-runs a query through the public layer functions in pipeline
// order, timing each call as a span. It owns a sample of the engine's
// sample size drawn with sample.TableWithoutReplacement, the full table in
// the engine's backing, and block/predicate caches mirroring the engine's.
type replayer struct {
	udfs    exec.Registry
	sample  *exec.StoredTable
	full    *exec.StoredTable
	workers int
	blocks  *cache.BlockCache
	preds   *cache.PredMemo
}

func newReplayer(sp spec, data *table.Table, workers int) *replayer {
	r := &replayer{udfs: exec.Registry{}, workers: workers}
	if sp.udfs {
		for _, u := range workload.UDFLibrary {
			r.udfs[upper(u.Name)] = u.Fn
		}
	}
	full, smp := data, sample.TableWithoutReplacement(rng.New(engineSeed).Split(), data, sp.sampleRows)
	if sp.compressed {
		full, smp = table.Compress(data), table.Compress(smp)
	}
	full.BuildZones()
	smp.BuildZones()
	r.full = &exec.StoredTable{Data: full}
	r.sample = &exec.StoredTable{Data: smp, PopRows: data.NumRows(), Cached: true}
	if sp.cacheBytes > 0 {
		r.blocks = cache.NewBlockCache(cache.BlockConfig{Bytes: sp.cacheBytes})
		r.preds = cache.NewPredMemo(nil)
	}
	return r
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// replayStats are the counts one replay measured.
type replayStats struct {
	rowsScanned, blocksSkipped, blocks int64
	diagnosed, rejected                int
	wasted                             time.Duration // approximate stages of a fallen-back query
}

func zoneBlocks(t *table.Table) int64 {
	return int64((t.NumRows() + table.ZoneBlockRows - 1) / table.ZoneBlockRows)
}

// replay times text through sql.Parse → plan.Analyze → plan.Build →
// sample exec.Run → interval or bootstrap → diagnostic.Run → exact
// exec.Run (only when ans fell back) → serve.EncodeAnswer, under a
// "replay" span of query qid.
func (r *replayer) replay(rec *recorder, qid, root int, text string, ans *core.Answer) (replayStats, error) {
	var st replayStats
	ctx := context.Background()
	parent := rec.start(qid, root, "replay")
	defer rec.end(parent)
	began := time.Now()
	step := func(name string, fn func() error) error {
		id := rec.start(qid, parent, name)
		err := fn()
		rec.end(id)
		return err
	}

	var sel *sql.Select
	if err := step("sql.parse", func() error {
		stmt, err := sql.Parse(text)
		if err != nil {
			return err
		}
		var ok bool
		if sel, ok = stmt.(*sql.Select); !ok {
			return fmt.Errorf("not a SELECT")
		}
		return nil
	}); err != nil {
		return st, err
	}
	var def *plan.QueryDef
	if err := step("plan.analyze", func() (err error) {
		def, err = plan.Analyze(sel, func(name string) bool { _, ok := r.udfs[name]; return ok })
		return err
	}); err != nil {
		return st, err
	}
	var p *plan.Plan
	if err := step("plan.build", func() (err error) {
		opt := plan.DefaultOptions(r.sample.Data.NumRows())
		opt.BootstrapK, opt.Diagnostics = 0, false
		p, err = plan.Build(def, opt)
		return err
	}); err != nil {
		return st, err
	}
	cfg := exec.Config{Workers: r.workers, Seed: engineSeed, Blocks: r.blocks, Preds: r.preds}
	var res *exec.Result
	if err := step("exec.sample_scan", func() (err error) {
		res, err = exec.Run(ctx, p, map[string]*exec.StoredTable{def.Table: r.sample}, r.udfs, cfg)
		return err
	}); err != nil {
		return st, err
	}
	st.rowsScanned += res.Counters.RowsScanned
	st.blocksSkipped += res.Counters.BlocksSkipped
	st.blocks += zoneBlocks(r.sample.Data)

	closedForm := def.ClosedFormOK()
	for gi, g := range res.Groups {
		for ai, out := range g.Aggs {
			r.errorBar(rec, qid, parent, closedForm, out, gi, ai)
			ok, diagnosed, err := r.diagnose(rec, qid, parent, out)
			if err != nil {
				return st, err
			}
			if diagnosed {
				st.diagnosed++
				if !ok {
					st.rejected++
				}
			}
		}
	}
	if ans.FellBack() {
		st.wasted = time.Since(began)
		if err := step("exec.exact_scan", func() error {
			pe, err := plan.Build(def, plan.Options{Alpha: alpha})
			if err != nil {
				return err
			}
			exact, err := exec.Run(ctx, pe, map[string]*exec.StoredTable{def.Table: r.full}, r.udfs, cfg)
			if err != nil {
				return err
			}
			st.rowsScanned += exact.Counters.RowsScanned
			st.blocksSkipped += exact.Counters.BlocksSkipped
			st.blocks += zoneBlocks(r.full.Data)
			return nil
		}); err != nil {
			return st, err
		}
	}
	step("serve.encode", func() error { serve.EncodeAnswer(ans); return nil })
	return st, nil
}

// errorBar times the interval the engine would compute for one aggregate:
// the closed form for a closed-form query, otherwise the bootstrap kernel
// on the scan's values at the engine's K.
func (r *replayer) errorBar(rec *recorder, qid, parent int, closedForm bool, out exec.AggOutput, gi, ai int) {
	if closedForm {
		id := rec.start(qid, parent, "estimator.closed_form")
		q := estimator.Query{Kind: out.Spec.Kind, Pct: out.Spec.Pct}
		(estimator.ClosedForm{}).Interval(nil, out.Values, q, alpha)
		rec.end(id)
		return
	}
	id := rec.start(qid, parent, "kernel.bootstrap")
	stream := uint64(gi)<<32 | uint64(ai)
	if out.Query.FusedApplicable() {
		kernel.FusedSums(context.Background(), out.Values, bootstrapK, engineSeed, stream, r.workers)
	} else {
		kernel.Generic(context.Background(), out.Values, bootstrapK, engineSeed, stream, r.workers, out.Query.EvalWeighted)
	}
	rec.end(id)
}

// diagnose times diagnostic.Run on one aggregate's values with the
// estimator and ladder the executor would use. diagnosed is false when the
// sample is too small for a diagnosis; ok is the verdict.
func (r *replayer) diagnose(rec *recorder, qid, parent int, out exec.AggOutput) (ok, diagnosed bool, err error) {
	opt := plan.DefaultOptions(r.sample.Data.NumRows())
	b3 := r.sample.Data.NumRows() / (2 * opt.DiagP)
	if b3 < 32 {
		return true, false, nil
	}
	dcfg := diagnostic.Config{
		SubsampleSizes: []int{b3 / 4, b3 / 2, b3},
		P:              opt.DiagP,
		C1:             0.2, C2: 0.2, C3: 0.5,
		Rho: 0.95, Alpha: alpha, Shuffle: true,
		Workers: r.workers,
	}
	if b3*dcfg.P > len(out.Values) {
		// Too few filtered rows for the ladder: shrink it, or reject.
		b3 = len(out.Values) / (2 * dcfg.P)
		if b3 < 16 {
			return false, true, nil
		}
		dcfg.SubsampleSizes = []int{b3 / 4, b3 / 2, b3}
	}
	var xi estimator.Estimator = estimator.Bootstrap{K: bootstrapK}
	if out.Query.ClosedFormApplicable() {
		xi = estimator.ClosedForm{UseStudentT: true}
	}
	id := rec.start(qid, parent, "diagnostic.run")
	res, err := diagnostic.Run(context.Background(), rng.NewWithStream(engineSeed, 7), out.Values, out.Query, xi, dcfg)
	rec.end(id)
	return res.OK, true, err
}
