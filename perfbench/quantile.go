package main

import (
	"slices"
	"sort"
)

// summary is an exact quantile summary of latency samples: the samples
// sorted ascending, read by nearest rank. No bucketing, no
// interpolation: every quantile it reports is a value that was
// measured.
type summary struct {
	sorted []uint32 // nanoseconds, ascending
}

// summarize sorts samples in place and reads them as a summary.
func summarize(samples []uint32) summary {
	slices.Sort(samples)
	return summary{sorted: samples}
}

// N is the sample count.
func (s summary) N() int { return len(s.sorted) }

// A quantile is named in basis points, so ranks are integer arithmetic
// with no floating-point rounding at the boundaries.
const (
	p50 = 5000
	p99 = 9900
)

// rank is the 1-based nearest rank of the bp-basis-point quantile in n
// samples: ceil(bp·n/10000), at least 1.
func rank(bp, n int) int {
	r := (bp*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// Quantile returns the nearest-rank bp quantile in nanoseconds and
// whether the sample supports it. A quantile is supported when at least
// minBeyond samples lie strictly above its rank, so a tail figure always
// rests on more than one or two outliers.
func (s summary) Quantile(bp int) (ns uint32, ok bool) {
	n := len(s.sorted)
	if n == 0 {
		return 0, false
	}
	r := rank(bp, n)
	return s.sorted[r-1], n-r >= minBeyond
}

// Beyond counts the samples ranked above the nearest-rank bp quantile:
// the samples a tail quantile rests on.
func (s summary) Beyond(bp int) int {
	n := len(s.sorted)
	if n == 0 {
		return 0
	}
	return n - rank(bp, n)
}

// minBeyond is how many samples must lie beyond a reported quantile.
const minBeyond = 10

// minSamplesFor is the smallest sample count at which the bp quantile
// is supported: the first n with n − rank(bp, n) ≥ minBeyond.
func minSamplesFor(bp int) int {
	return sort.Search(1<<30, func(n int) bool {
		return n > 0 && n-rank(bp, n) >= minBeyond
	})
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
