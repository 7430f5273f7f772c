package main

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/table"
	"repro/internal/workload"
)

// Every workload reads one table: aqpd's Sessions demo table plus a
// clustered Day column so that zone maps can skip blocks on Day ranges.
const tableName = "Sessions"

var cities = []string{"NYC", "SF", "LA", "CHI", "SEA", "BOS"}

// dataSeed fixes the table contents. The table is part of the workload, not
// of the run: --seed draws the query stream and the arrivals, while the
// data, the engine's sampling seed and the accuracy set stay fixed so that
// ci_miss_frac repeats exactly across runs.
const dataSeed = 1

// engineSeed is core.Config.Seed for every engine the benchmark builds.
const engineSeed = 42

// genSessions builds Sessions(Time, City, KB, Day) with the given row
// count: Time lognormal(4, 0.6), City Zipf(1.1) over six cities, KB
// Pareto(xm=10000, α=1.3)/1000 and Day clustered 0..364 in row order.
func genSessions(rows int) *table.Table {
	src := rng.New(dataSeed)
	times := make(table.Float64Col, rows)
	city := make(table.StringCol, rows)
	kb := make(table.Float64Col, rows)
	day := make(table.Int64Col, rows)
	zipf := rng.NewZipf(src, len(cities), 1.1)
	for i := 0; i < rows; i++ {
		city[i] = cities[zipf.Next()]
		times[i] = src.LogNormal(4, 0.6)
		kb[i] = src.Pareto(10000, 1.3) / 1000
		day[i] = int64(i) * 365 / int64(rows)
	}
	return table.MustNew(table.Schema{
		{Name: "Time", Type: table.Float64},
		{Name: "City", Type: table.String},
		{Name: "KB", Type: table.Float64},
		{Name: "Day", Type: table.Int64},
	}, times, city, kb, day)
}

// distinct hands out a source's texts without ever repeating one, nor any
// text a caller marked as already used.
type distinct struct {
	src  *mix
	seen map[string]bool
}

func newDistinct(src *mix) *distinct {
	return &distinct{src: src, seen: map[string]bool{}}
}

func (d *distinct) next() string {
	q := d.src.next(func(q string) bool { return !d.seen[q] })
	d.seen[q] = true
	return q
}

// exclude marks texts as already used.
func (d *distinct) exclude(texts []string) {
	for _, t := range texts {
		d.seen[t] = true
	}
}

// take returns the next n texts.
func take(d *distinct, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = d.next()
	}
	return out
}

// deal hands out items in shuffled blocks of fixed composition (the items
// given, repeats included), so every run sees the stated mix up to one
// block's rounding and only the order depends on the seed.
type deal[T any] struct {
	src   *rng.Source
	block []T
	pos   int
}

func newDeal[T any](src *rng.Source, block []T) *deal[T] {
	return &deal[T]{src: src, block: block, pos: len(block)}
}

func (d *deal[T]) next() T {
	if d.pos == len(d.block) {
		d.src.Shuffle(len(d.block), func(i, j int) { d.block[i], d.block[j] = d.block[j], d.block[i] })
		d.pos = 0
	}
	d.pos++
	return d.block[d.pos-1]
}

// repeat lists each item counts[i] times.
func repeat[T any](items []T, counts []int) []T {
	var out []T
	for i, it := range items {
		for j := 0; j < counts[i]; j++ {
			out = append(out, it)
		}
	}
	return out
}

// pred is a predicate class: no predicate, City equality with one city,
// or a Day range whose width in days is drawn from [lo, hi].
type pred struct {
	city   string
	lo, hi int
}

func (p pred) render(src *rng.Source) string {
	switch {
	case p.city != "":
		return fmt.Sprintf("City = '%s'", p.city)
	case p.hi > 0:
		return dayRange(src, p.lo, p.hi)
	}
	return ""
}

// shape is one query form: aggregate call, predicate class, grouping.
type shape struct {
	agg     string
	pred    pred
	grouped bool
}

func (sh shape) render(src *rng.Source, p pred) string {
	q := "SELECT "
	if sh.grouped {
		q += "City, "
	}
	q += sh.agg + " FROM " + tableName
	if w := p.render(src); w != "" {
		q += " WHERE " + w
	}
	if sh.grouped {
		q += " GROUP BY City"
	}
	return q
}

// dayRange renders a Day range predicate covering between lo and hi days.
func dayRange(src *rng.Source, lo, hi int) string {
	n := lo + src.Intn(hi-lo+1)
	start := src.Intn(365 - n + 1)
	return fmt.Sprintf("Day >= %d AND Day <= %d", start, start+n-1)
}

var pctLevels = []float64{0.5, 0.75, 0.9, 0.95, 0.99}

// aggCalls lists every aggregate call of a kind over the numeric columns:
// one per column, times one per UDF or percentile level.
func aggCalls(kind string) []string {
	if kind == "COUNT" {
		return []string{"COUNT(*)"}
	}
	var out []string
	for _, col := range []string{"Time", "KB"} {
		switch kind {
		case "UDF":
			for _, u := range workload.UDFLibrary {
				out = append(out, fmt.Sprintf("%s(%s)", u.Name, col))
			}
		case "PERCENTILE":
			for _, l := range pctLevels {
				out = append(out, fmt.Sprintf("PERCENTILE(%s, %g)", col, l))
			}
		default:
			out = append(out, fmt.Sprintf("%s(%s)", kind, col))
		}
	}
	return out
}

// shapes is every (call, predicate, grouping) combination of one kind.
func shapes(kind string, preds []pred, grouped []bool) []shape {
	var out []shape
	for _, a := range aggCalls(kind) {
		for _, p := range preds {
			for _, g := range grouped {
				out = append(out, shape{agg: a, pred: p, grouped: g})
			}
		}
	}
	return out
}

// mix draws a kind from its deal, then a shape from that kind's deal, and
// renders it, redrawing the Day range (or, once a text is used up, turning
// to the fallback range) until the text is fresh. Uniqueness never moves
// the kind or shape mix.
type mix struct {
	src      *rng.Source
	kinds    *deal[string]
	byKind   map[string]*deal[shape]
	fallback pred
}

func newMix(seed uint64, kinds []string, weights []int, preds []pred, grouped []bool, fallback pred) *distinct {
	src := rng.New(seed)
	m := &mix{src: src, kinds: newDeal(src.Split(), repeat(kinds, weights)),
		byKind: map[string]*deal[shape]{}, fallback: fallback}
	for _, k := range kinds {
		m.byKind[k] = newDeal(src.Split(), shapes(k, preds, grouped))
	}
	return newDistinct(m)
}

// next returns a text for which fresh (is it still unused?) holds.
func (m *mix) next(fresh func(string) bool) string {
	sh := m.byKind[m.kinds.next()].next()
	p := sh.pred
	for tries := 0; ; tries++ {
		if tries == 4 {
			p = m.fallback
		}
		if q := sh.render(m.src, p); fresh(q) {
			return q
		}
	}
}

func cityPreds() []pred {
	out := make([]pred, len(cities))
	for i, c := range cities {
		out[i] = pred{city: c}
	}
	return out
}

// newTraceMix is the Facebook-trace aggregate mix (DESIGN.md §2): MIN 33%,
// COUNT 25%, AVG 12%, SUM 10%, MAX 3%, UDF 11%, PERCENTILE the rest.
// Predicates are none, City equality, or a 1–30-day Day range, a third
// each; once an aggregate's unpredicated text is used, it gets a range.
func newTraceMix(seed uint64) *distinct {
	preds := repeat([]pred{{}}, []int{6})
	preds = append(preds, cityPreds()...)
	preds = append(preds, repeat([]pred{{lo: 1, hi: 5}, {lo: 6, hi: 15}, {lo: 16, hi: 30}}, []int{2, 2, 2})...)
	return newMix(seed,
		[]string{"MIN", "COUNT", "AVG", "SUM", "MAX", "UDF", "PERCENTILE"},
		[]int{33, 25, 12, 10, 3, 11, 6},
		preds, []bool{false}, pred{lo: 1, hi: 30})
}

// newScanClosed draws AVG/SUM/COUNT only, a quarter of them grouped by
// City, with City equality or a Day range at 0.3–10% selectivity, half
// each.
func newScanClosed(seed uint64) *distinct {
	preds := cityPreds()
	preds = append(preds, repeat([]pred{{lo: 1, hi: 4}, {lo: 5, hi: 12}, {lo: 13, hi: 36}}, []int{2, 2, 2})...)
	return newMix(seed,
		[]string{"AVG", "SUM", "COUNT"}, []int{2, 1, 1},
		preds, []bool{true, false, false, false}, pred{lo: 1, hi: 36})
}

// servePool builds serve-cached's fixed pool of distinct texts: 20%
// bootstrap aggregates (MIN and MAX), the rest closed-form AVG/SUM/COUNT,
// a fifth of those grouped by City, every one over a 3–20-day Day range.
// The narrow ranges keep answer-cache misses short and alike, so that the
// served path, not the scan, sets the latency.
func servePool(n int) []string {
	src := rng.New(dataSeed + 100)
	kinds := newDeal(src.Split(), repeat([]string{"AVG", "SUM", "COUNT", "MIN", "MAX"}, []int{4, 2, 2, 1, 1}))
	seen := map[string]bool{}
	var pool []string
	for len(pool) < n {
		kind := kinds.next()
		calls := aggCalls(kind)
		sh := shape{agg: calls[src.Intn(len(calls))], pred: pred{lo: 3, hi: 20}}
		sh.grouped = kind != "MIN" && kind != "MAX" && src.Intn(5) == 0
		if q := sh.render(src, sh.pred); !seen[q] {
			seen[q] = true
			pool = append(pool, q)
		}
	}
	return pool
}
