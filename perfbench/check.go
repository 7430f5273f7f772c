package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
)

// exactTol is the relative difference an exact answer may have from the
// ground truth: summation order may differ between backings.
const exactTol = 1e-9

// groundTruth answers every distinct text exactly with Engine.RunExact on
// a separate engine over a freshly generated raw copy of the table (no
// cache, no samples), two texts at a time.
func groundTruth(sp spec, texts []string, workers int) (map[string]*core.Answer, error) {
	eng := core.New(core.Config{Seed: engineSeed, Workers: workers})
	defer eng.Close()
	if sp.udfs {
		registerUDFs(eng)
	}
	if err := eng.RegisterTable(tableName, genSessions(sp.rows)); err != nil {
		return nil, err
	}
	var todo []string
	truth := map[string]*core.Answer{}
	for _, t := range texts {
		if _, dup := truth[t]; !dup {
			truth[t] = nil
			todo = append(todo, t)
		}
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
		ferr error
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(todo) || ferr != nil {
					mu.Unlock()
					return
				}
				t := todo[next]
				next++
				mu.Unlock()
				ans, err := eng.RunExact(context.Background(), t)
				mu.Lock()
				if err != nil {
					ferr = fmt.Errorf("ground truth for %q: %w", t, err)
				}
				truth[t] = ans
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return truth, ferr
}

func truthGroups(truth *core.Answer) map[string][]core.AggAnswer {
	out := map[string][]core.AggAnswer{}
	for _, g := range truth.Groups {
		out[g.Key] = g.Aggs
	}
	return out
}

func sameValue(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= exactTol*math.Abs(want)
}

// checkExact fails an answer whose exact (fallen-back or unsampled)
// aggregates differ from the ground truth.
func checkExact(ans, truth *core.Answer) error {
	want := truthGroups(truth)
	for _, g := range ans.Groups {
		for i, a := range g.Aggs {
			if !a.Exact {
				continue
			}
			tg, ok := want[g.Key]
			if !ok || i >= len(tg) {
				return fmt.Errorf("exact group %q of %q has no ground truth", g.Key, ans.SQL)
			}
			if !sameValue(a.Estimate, tg[i].Estimate) {
				return fmt.Errorf("exact %s of %q group %q = %v, truth %v",
					a.Name, ans.SQL, g.Key, a.Estimate, tg[i].Estimate)
			}
		}
	}
	return nil
}

// coverage tallies approximate intervals against the ground truth.
type coverage struct {
	intervals, misses int
	// relHalf are the approximate intervals' half-widths relative to the
	// true value.
	relHalf []float64
}

// add scores one answer: every true group must appear, and each of its
// approximate aggregates must carry a positive-width interval containing
// the true value. A vanished group counts as a miss for each aggregate; a
// zero-width or undefined interval counts as a miss. Exact aggregates are
// not intervals and are skipped.
func (c *coverage) add(ans, truth *core.Answer) {
	got := map[string][]core.AggAnswer{}
	for _, g := range ans.Groups {
		got[g.Key] = g.Aggs
	}
	for _, tg := range truth.Groups {
		aggs, ok := got[tg.Key]
		for i, t := range tg.Aggs {
			if !ok || i >= len(aggs) {
				c.intervals++
				c.misses++
				continue
			}
			a := aggs[i]
			if a.Exact {
				continue
			}
			c.intervals++
			hw := a.ErrorBar.HalfWidth
			if math.IsNaN(hw) || hw <= 0 || !a.ErrorBar.Contains(t.Estimate) {
				c.misses++
			}
			if !math.IsNaN(hw) && t.Estimate != 0 {
				c.relHalf = append(c.relHalf, hw/math.Abs(t.Estimate))
			}
		}
	}
}

func (c coverage) missFrac() float64 {
	if c.intervals == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.intervals)
}
