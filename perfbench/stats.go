package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1), and
// whether at least minBeyond samples lie strictly beyond its rank. xs
// need not be sorted; it is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= minBeyond
}

// median is the 0.5 nearest-rank percentile (NaN for no samples).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// outcome is one query's end-to-end result as a latency sample.
type outcome struct {
	// due is when the query was meant to be sent: the send time in a
	// closed loop, the scheduled arrival in an open loop.
	due, done time.Time
	// failed marks an error, a refusal or a wrong answer.
	failed bool
}

// latencyMs is the sample a query contributes to the latency percentiles:
// its time from due to done, or +Inf when it failed, so that a failed or
// refused query misses every latency limit.
func (o outcome) latencyMs() float64 {
	if o.failed {
		return math.Inf(1)
	}
	return float64(o.done.Sub(o.due)) / 1e6
}

// latencySummary reports p50 and p95 latency over the outcomes, failing
// when fewer than minBeyond samples lie beyond the p95.
func latencySummary(outs []outcome) (p50, p95 float64, err error) {
	lats := make([]float64, len(outs))
	for i, o := range outs {
		lats[i] = o.latencyMs()
	}
	p50, _ = percentile(lats, 0.5)
	p95, ok := percentile(lats, 0.95)
	if !ok {
		return 0, 0, fmt.Errorf("only %d latency samples: p95 needs %d beyond it", len(lats), minBeyond)
	}
	return p50, p95, nil
}

// windows is how many consecutive slices an open-loop rate is cut into;
// its latencies and rate are medians over the slices, so that a transient
// stall of the machine, and the queue it leaves behind, moves at most one
// slice.
const windows = 5

// windowSummary is the median over windows consecutive slices (by due
// time, equal counts) of each slice's p50, p95 and completion rate.
func windowSummary(outs []outcome) (p50, p95, rate float64, err error) {
	s := append([]outcome(nil), outs...)
	sort.Slice(s, func(i, j int) bool { return s[i].due.Before(s[j].due) })
	var p50s, p95s, rates []float64
	for w := 0; w < windows; w++ {
		part := s[w*len(s)/windows : (w+1)*len(s)/windows]
		a, b, err := latencySummary(part)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("window %d of %d: %w", w+1, windows, err)
		}
		p50s, p95s = append(p50s, a), append(p95s, b)
		rates = append(rates, completionRate(part))
	}
	return median(p50s), median(p95s), median(rates), nil
}

// completionRate is the successful queries per second from the first due
// time to the last completion.
func completionRate(outs []outcome) float64 {
	if len(outs) == 0 {
		return 0
	}
	first, last := outs[0].due, outs[0].done
	n := 0
	for _, o := range outs {
		if o.due.Before(first) {
			first = o.due
		}
		if o.done.After(last) {
			last = o.done
		}
		if !o.failed {
			n++
		}
	}
	return float64(n) / last.Sub(first).Seconds()
}

// meetsLimit reports whether the p95 latency over outs (failures counted
// as misses; the median over windows when there are enough samples) is
// within limitMs.
func meetsLimit(outs []outcome, limitMs float64) bool {
	_, p95, _, err := windowSummary(outs)
	if err != nil {
		_, p95, err = latencySummary(outs)
	}
	return err == nil && p95 <= limitMs
}

// finite replaces ±Inf with the largest float so a result stays valid JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	if math.IsInf(v, -1) {
		return -math.MaxFloat64
	}
	return v
}
