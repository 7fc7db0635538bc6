package main

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// uniform returns the values 1..n in a seeded shuffle: a distribution
// whose every nearest-rank quantile is known in closed form.
func uniform(n int) []uint32 {
	v := make([]uint32, n)
	for i := range v {
		v[i] = uint32(i + 1)
	}
	r := rand.New(rand.NewPCG(7, 7))
	r.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
	return v
}

func TestQuantileKnownDistribution(t *testing.T) {
	s := summarize(uniform(1000))
	if s.N() != 1000 {
		t.Fatalf("N = %d, want 1000", s.N())
	}
	for _, tc := range []struct {
		bp     int
		want   uint32
		beyond int
		ok     bool
	}{
		{p50, 500, 500, true},
		{p99, 990, 10, true},
		{9990, 999, 1, false}, // p99.9 rests on one sample: not supported
		{10000, 1000, 0, false},
	} {
		got, ok := s.Quantile(tc.bp)
		if got != tc.want || ok != tc.ok {
			t.Errorf("Quantile(%d) = %d, %v; want %d, %v", tc.bp, got, ok, tc.want, tc.ok)
		}
		if b := s.Beyond(tc.bp); b != tc.beyond {
			t.Errorf("Beyond(%d) = %d, want %d", tc.bp, b, tc.beyond)
		}
	}
}

// TestQuantileFirstReported pins the sample counts at which p99 and p50
// are first supported: ten samples must lie beyond the reported rank.
func TestQuantileFirstReported(t *testing.T) {
	if got := minSamplesFor(p99); got != 1000 {
		t.Fatalf("minSamplesFor(p99) = %d, want 1000", got)
	}
	if got := minSamplesFor(p50); got != 20 {
		t.Fatalf("minSamplesFor(p50) = %d, want 20", got)
	}
	for _, tc := range []struct {
		n      int
		ok     bool
		beyond int
	}{
		{999, false, 9},
		{1000, true, 10},
		{1099, true, 10},
		{1100, true, 11},
	} {
		s := summarize(uniform(tc.n))
		_, ok := s.Quantile(p99)
		if ok != tc.ok || s.Beyond(p99) != tc.beyond {
			t.Errorf("n=%d: p99 supported %v with %d beyond; want %v with %d", tc.n, ok, s.Beyond(p99), tc.ok, tc.beyond)
		}
	}
	if _, ok := summarize(nil).Quantile(p50); ok {
		t.Fatal("empty sample supports a quantile")
	}
}

// TestQuantileMatchesSort checks nearest rank against a direct sort on
// random data with ties.
func TestQuantileMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.IntN(3000)
		v := make([]uint32, n)
		for i := range v {
			v[i] = uint32(r.IntN(500))
		}
		sorted := slices.Clone(v)
		slices.Sort(sorted)
		s := summarize(v)
		for _, bp := range []int{1, p50, 9000, p99, 10000} {
			k := (bp*n + 9999) / 10000
			if k < 1 {
				k = 1
			}
			if got, _ := s.Quantile(bp); got != sorted[k-1] {
				t.Fatalf("n=%d bp=%d: got %d, want %d", n, bp, got, sorted[k-1])
			}
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := slices.Clone(tc.in)
		if got := median(in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		if !slices.Equal(in, tc.in) {
			t.Errorf("median reordered its input")
		}
	}
}
