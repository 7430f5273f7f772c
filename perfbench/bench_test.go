package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/rng"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeOnSpanTree(t *testing.T) {
	// query [0,100] ─┬─ core.run [10,60] ─── exec [20,40]
	//                ├─ replay  [50,90]  (overlaps core.run by 10)
	//                └─ late    [95,120] (clipped to the parent at 100)
	spans := []span{
		{ID: 1, Name: "query", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "core.run", Start: at(10), End: at(60)},
		{ID: 3, Parent: 2, Name: "exec", Start: at(20), End: at(40)},
		{ID: 4, Parent: 1, Name: "replay", Start: at(50), End: at(90)},
		{ID: 5, Parent: 1, Name: "late", Start: at(95), End: at(120)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*time.Millisecond - 80*time.Millisecond - 5*time.Millisecond, // children cover [10,90] ∪ [95,100]
		2: 30 * time.Millisecond,
		3: 20 * time.Millisecond,
		4: 40 * time.Millisecond,
		5: 25 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time = %v, want %v", id, self[id], w)
		}
	}
	tot := layerTotals(spans)
	if tot["exec"] != 20*time.Millisecond || tot["query"] != 15*time.Millisecond {
		t.Errorf("layer totals = %v", tot)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 199 samples: the p95 rank is 190 (value 190), with 9 beyond it.
	if v, ok := percentile(xs, 0.95); ok || v != 190 {
		t.Errorf("p95 of 199 = %v, %v; want 190 not reportable", v, ok)
	}
	xs = append(xs, 200)
	// 200 samples: rank 190 again, now with 10 beyond it.
	if v, ok := percentile(xs, 0.95); !ok || v != 190 {
		t.Errorf("p95 of 200 = %v, %v; want 190 reportable", v, ok)
	}
	outs := make([]outcome, 199)
	for i := range outs {
		outs[i] = outcome{due: at(0), done: at(i + 1)}
	}
	if _, _, err := latencySummary(outs); err == nil {
		t.Error("latencySummary reported a p95 with 9 samples beyond it")
	}
	if v := median([]float64{3, 1, 2}); v != 2 {
		t.Errorf("median = %v", v)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	// Due at 0, sent 30 ms late because the connections were busy, done
	// 5 ms after sending: latency is 35 ms, not the 5 ms of service.
	r := record{out: outcome{due: at(0), done: at(35)}, late: 30 * time.Millisecond}
	if got := r.out.latencyMs(); got != 35 {
		t.Errorf("latency = %v ms, want 35", got)
	}
	// The schedule keeps its due times whatever the generator does.
	deck := []string{"a", "b", "c", "d"}
	arr := arrivals(rng.New(1), deck, 1000, 8*time.Millisecond, t0)
	if len(arr) < 6 || !arr[0].refresh || !arr[4].refresh || arr[1].refresh {
		t.Fatalf("arrivals: %d, refreshes at epoch starts only: %+v", len(arr), arr)
	}
	for i := 1; i < len(arr); i++ {
		if !arr[i].due.After(arr[i-1].due) {
			t.Fatalf("due times not increasing at %d", i)
		}
	}
}

func TestFailedQueriesMissTheLimit(t *testing.T) {
	outs := make([]outcome, 200)
	for i := range outs {
		outs[i] = outcome{due: at(0), done: at(1)}
	}
	if !meetsLimit(outs, 10) {
		t.Fatal("fast queries should meet a 10 ms limit")
	}
	// 11 refused queries (over 5%) answered instantly still miss the limit.
	for i := 0; i < 11; i++ {
		outs[i].failed = true
	}
	if meetsLimit(outs, 10) {
		t.Error("refused queries counted as meeting the limit")
	}
	if l := outs[0].latencyMs(); !math.IsInf(l, 1) {
		t.Errorf("failed latency = %v, want +Inf", l)
	}
	_, p95, err := latencySummary(outs)
	if err != nil || !math.IsInf(p95, 1) {
		t.Errorf("p95 with 11 failures in 200 = %v, %v; want +Inf", p95, err)
	}
}

func TestZipfDeckKeepsShares(t *testing.T) {
	pool := make([]string, servePoolSize)
	for i := range pool {
		pool[i] = string(rune('A' + i%26))
	}
	pool[0], pool[1] = "top", "second"
	deck := zipfDeck(pool)
	n := map[string]int{}
	for _, q := range deck {
		n[q]++
	}
	if len(deck) != refreshEvery || n["top"] <= n["second"] || n["second"] == 0 {
		t.Errorf("deck of %d: top %d, second %d", len(deck), n["top"], n["second"])
	}
}
