package sample

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/table"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

func TestWithReplacementShapeAndSupport(t *testing.T) {
	src := rng.New(1)
	xs := seq(100)
	s := WithReplacement(src, xs, 1000)
	if len(s) != 1000 {
		t.Fatalf("len = %d", len(s))
	}
	for _, v := range s {
		if v < 0 || v > 99 {
			t.Fatalf("sampled value %v outside support", v)
		}
	}
}

func TestWithReplacementMeanConverges(t *testing.T) {
	src := rng.New(2)
	xs := seq(1000) // mean 499.5
	s := WithReplacement(src, xs, 200000)
	if m := stats.Mean(s); math.Abs(m-499.5) > 5 {
		t.Fatalf("sample mean %v too far from 499.5", m)
	}
}

func TestWithoutReplacementNoDuplicates(t *testing.T) {
	xs := seq(500)
	for _, n := range []int{10, 100, 400, 500} { // exercises Floyd and shuffle paths
		src := rng.New(uint64(n))
		s := WithoutReplacement(src, xs, n)
		if len(s) != n {
			t.Fatalf("n=%d: len = %d", n, len(s))
		}
		seen := map[float64]bool{}
		for _, v := range s {
			if seen[v] {
				t.Fatalf("n=%d: duplicate value %v", n, v)
			}
			seen[v] = true
		}
	}
}

func TestWithoutReplacementPanicsWhenOverdrawn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overdraw did not panic")
		}
	}()
	WithoutReplacement(rng.New(1), seq(5), 6)
}

func TestTableSampling(t *testing.T) {
	tbl := table.MustNew(
		table.Schema{{Name: "x", Type: table.Float64}},
		table.Float64Col(seq(50)),
	)
	src := rng.New(3)
	wr := TableWithReplacement(src, tbl, 200)
	if wr.NumRows() != 200 {
		t.Fatalf("with-replacement rows = %d", wr.NumRows())
	}
	wor := TableWithoutReplacement(src, tbl, 20)
	if wor.NumRows() != 20 {
		t.Fatalf("without-replacement rows = %d", wor.NumRows())
	}
	seen := map[float64]bool{}
	for _, v := range wor.Column(0).(table.Float64Col) {
		if seen[v] {
			t.Fatal("table without-replacement produced duplicates")
		}
		seen[v] = true
	}
}

func TestShuffledIsPermutation(t *testing.T) {
	src := rng.New(4)
	xs := seq(200)
	s := Shuffled(src, xs)
	if len(s) != len(xs) {
		t.Fatal("length changed")
	}
	// Original untouched.
	for i, v := range xs {
		if v != float64(i) {
			t.Fatal("Shuffled mutated its input")
		}
	}
	sum := stats.Sum(s)
	if sum != stats.Sum(xs) {
		t.Fatal("Shuffled is not a permutation")
	}
	// Not the identity with overwhelming probability.
	identical := true
	for i, v := range s {
		if v != float64(i) {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("Shuffled returned the identity permutation")
	}
}

func TestDisjointSubsamples(t *testing.T) {
	s := seq(100)
	subs, err := DisjointSubsamples(s, 10, 5)
	if err != nil {
		t.Fatalf("DisjointSubsamples: %v", err)
	}
	if len(subs) != 5 {
		t.Fatalf("p = %d", len(subs))
	}
	seen := map[float64]bool{}
	for _, sub := range subs {
		if len(sub) != 10 {
			t.Fatalf("subsample size = %d", len(sub))
		}
		for _, v := range sub {
			if seen[v] {
				t.Fatalf("value %v appears in two subsamples", v)
			}
			seen[v] = true
		}
	}
}

func TestDisjointSubsamplesErrors(t *testing.T) {
	if _, err := DisjointSubsamples(seq(10), 5, 3); err == nil {
		t.Error("insufficient rows not rejected")
	}
	if _, err := DisjointSubsamples(seq(10), 0, 3); err == nil {
		t.Error("zero size not rejected")
	}
	if _, err := DisjointSubsamples(seq(10), 5, 0); err == nil {
		t.Error("zero p not rejected")
	}
}

func TestQuickDisjointSubsamplesDisjoint(t *testing.T) {
	f := func(sizeRaw, pRaw uint8) bool {
		size := int(sizeRaw)%20 + 1
		p := int(pRaw)%10 + 1
		s := seq(size * p)
		subs, err := DisjointSubsamples(s, size, p)
		if err != nil {
			return false
		}
		count := 0
		for _, sub := range subs {
			count += len(sub)
		}
		return count == size*p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStratifiedCapsGroups(t *testing.T) {
	src := rng.New(5)
	keys := make([]string, 0, 110)
	xs := make([]float64, 0, 110)
	for i := 0; i < 100; i++ { // big group
		keys = append(keys, "big")
		xs = append(xs, float64(i))
	}
	for i := 0; i < 3; i++ { // rare group
		keys = append(keys, "rare")
		xs = append(xs, float64(1000+i))
	}
	outKeys, outXs := Stratified(src, keys, xs, 10)
	counts := map[string]int{}
	for _, k := range outKeys {
		counts[k]++
	}
	if counts["big"] != 10 {
		t.Errorf("big group sampled %d, want cap 10", counts["big"])
	}
	if counts["rare"] != 3 {
		t.Errorf("rare group sampled %d, want all 3", counts["rare"])
	}
	if len(outKeys) != len(outXs) {
		t.Error("stratified outputs not parallel")
	}
}

func TestRequiredSampleSizeScaling(t *testing.T) {
	// Quadrupling precision requirement (halving relErr) should 4x n.
	n1 := RequiredSampleSize(10, 5, 0.1, 0.95)
	n2 := RequiredSampleSize(10, 5, 0.05, 0.95)
	ratio := float64(n2) / float64(n1)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("halving relErr scaled n by %v, want ~4", ratio)
	}
	// Known value: z=1.96, sigma/mu = 0.5, relErr = 0.1 -> (1.96*5)^2 ≈ 96.
	if n1 < 90 || n1 > 102 {
		t.Errorf("n = %d, want ~96", n1)
	}
	// Degenerate inputs are unsatisfiable.
	if RequiredSampleSize(0, 5, 0.1, 0.95) < 1<<61 {
		t.Error("zero mean should be unsatisfiable")
	}
	if RequiredSampleSize(10, 5, 0, 0.95) < 1<<61 {
		t.Error("zero relErr should be unsatisfiable")
	}
}
