package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/table"
)

// concPoint is one worker count of the concurrent-serving sweep.
type concPoint struct {
	Workers int `json:"workers"`
	// QPS is completed queries per second at this concurrency.
	QPS float64 `json:"qps"`
	// MeanMs / P95Ms summarize per-query latency.
	MeanMs float64 `json:"mean_ms"`
	P95Ms  float64 `json:"p95_ms"`
	// Speedup is QPS relative to one worker.
	Speedup float64 `json:"speedup"`
	// Rejected counts queue-full rejections (0 unless the queue bound is
	// exceeded by the offered load).
	Rejected int `json:"rejected"`
}

// concBenchResult is the concurrency fixture: throughput vs worker count
// for a mixed workload pushed through the admission-controlled server on
// one shared engine. It serializes to BENCH_concurrency.json.
type concBenchResult struct {
	Rows       int         `json:"rows"`
	SampleRows int         `json:"sample_rows"`
	Queries    int         `json:"queries_per_point"`
	Points     []concPoint `json:"points"`
}

// JSONName routes this result's machine-readable output to its own file.
func (*concBenchResult) JSONName() string { return "BENCH_concurrency.json" }

// concBench measures end-to-end serving throughput as client concurrency
// grows: the same engine, the same mixed query set, 1..maxWorkers
// concurrent clients behind an admission limit equal to the client count
// (so the queue never rejects and the sweep isolates engine scaling).
func concBench(rows, sampleRows, queriesPerPoint, seed int) *concBenchResult {
	src := rng.New(uint64(seed))
	times := make(table.Float64Col, rows)
	cities := make(table.StringCol, rows)
	names := []string{"NYC", "SF", "LA", "CHI"}
	for i := 0; i < rows; i++ {
		times[i] = src.LogNormal(4, 0.6)
		cities[i] = names[src.Intn(len(names))]
	}
	tbl := table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
		{Name: "City", Type: table.String},
	}, times, cities)
	// One internal worker per query: the sweep measures cross-query
	// scaling through the admission layer, not intra-query parallelism.
	eng := core.New(core.Config{Seed: uint64(seed), Workers: 1,
		Obs: obs.NewTracer(obs.Config{})})
	if err := eng.RegisterTable("Sessions", tbl); err != nil {
		panic("aqpbench: " + err.Error())
	}
	if err := eng.BuildSamples("Sessions", sampleRows); err != nil {
		panic("aqpbench: " + err.Error())
	}
	mix := []string{
		"SELECT AVG(Time) FROM Sessions",
		"SELECT SUM(Time), COUNT(*) FROM Sessions WHERE Time > 50",
		"SELECT PERCENTILE(Time, 0.9) FROM Sessions",
		"SELECT City, AVG(Time) FROM Sessions GROUP BY City",
	}

	res := &concBenchResult{Rows: rows, SampleRows: sampleRows, Queries: queriesPerPoint}
	var base float64
	for _, workers := range []int{1, 2, 4, 8} {
		srv := serve.New(eng, serve.Config{MaxInFlight: workers, MaxQueue: workers * 4})
		lat := make([]float64, queriesPerPoint)
		rejected := 0
		var mu sync.Mutex
		var wg sync.WaitGroup
		next := make(chan int)
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					qstart := time.Now()
					_, err := srv.Submit(context.Background(), mix[i%len(mix)])
					ms := float64(time.Since(qstart)) / float64(time.Millisecond)
					mu.Lock()
					if err != nil {
						rejected++
					} else {
						lat[i] = ms
					}
					mu.Unlock()
				}
			}()
		}
		for i := 0; i < queriesPerPoint; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		if err := srv.Shutdown(context.Background()); err != nil {
			panic("aqpbench: " + err.Error())
		}
		qps := float64(queriesPerPoint-rejected) / elapsed
		if workers == 1 {
			base = qps
		}
		res.Points = append(res.Points, concPoint{
			Workers:  workers,
			QPS:      qps,
			MeanMs:   mean(lat),
			P95Ms:    p95(lat),
			Speedup:  qps / base,
			Rejected: rejected,
		})
	}
	return res
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func p95(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Insertion-sorted copy; the point count is small.
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(0.95 * float64(len(sorted)-1))
	return sorted[idx]
}

// Render implements result.
func (r *concBenchResult) Render(w io.Writer) {
	fmt.Fprintf(w, "concurrent serving sweep (rows=%d, sample=%d, %d queries/point)\n",
		r.Rows, r.SampleRows, r.Queries)
	fmt.Fprintf(w, "  %-10s %10s %10s %10s %9s %9s\n",
		"workers", "qps", "mean ms", "p95 ms", "speedup", "rejected")
	for _, p := range r.Points {
		fmt.Fprintf(w, "  %-10d %10.1f %10.2f %10.2f %8.2fx %9d\n",
			p.Workers, p.QPS, p.MeanMs, p.P95Ms, p.Speedup, p.Rejected)
	}
}

// WriteCSV implements result.
func (r *concBenchResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "workers,qps,mean_ms,p95_ms,speedup,rejected"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%d,%.2f,%.3f,%.3f,%.3f,%d\n",
			p.Workers, p.QPS, p.MeanMs, p.P95Ms, p.Speedup, p.Rejected); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the machine-readable form consumed by CI and tooling.
func (r *concBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
