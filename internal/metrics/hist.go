package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-bin histogram over a closed interval; values
// outside the interval are clamped into the edge bins so no observation
// is silently dropped.
type Histogram struct {
	lo, hi float64
	counts []int
	total  int
}

// NewHistogram creates a histogram with n bins spanning [lo, hi].
// Panics if n < 1 or hi ≤ lo (programmer errors).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 {
		panic(fmt.Sprintf("metrics: histogram needs ≥1 bin, got %d", n))
	}
	if hi <= lo {
		panic(fmt.Sprintf("metrics: histogram range [%g, %g] is empty", lo, hi))
	}
	return &Histogram{lo: lo, hi: hi, counts: make([]int, n)}
}

// Add folds a value into the histogram. Non-finite values are ignored
// and the method reports whether the value was counted.
func (h *Histogram) Add(x float64) bool {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return false
	}
	idx := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.counts)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.total++
	return true
}

// Total returns the number of counted observations.
func (h *Histogram) Total() int { return h.total }

// Bin returns the count of bin i and its [lo, hi) range.
func (h *Histogram) Bin(i int) (count int, lo, hi float64) {
	width := (h.hi - h.lo) / float64(len(h.counts))
	return h.counts[i], h.lo + float64(i)*width, h.lo + float64(i+1)*width
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// ECDF returns the empirical cumulative distribution of xs as a Series:
// X is the sorted sample, Y the cumulative fraction ≤ X. Non-finite
// samples are dropped. Returns an empty series for empty input.
func ECDF(name string, xs []float64) Series {
	var clean []float64
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			clean = append(clean, x)
		}
	}
	sort.Float64s(clean)
	s := Series{Name: name}
	n := float64(len(clean))
	for i, x := range clean {
		s.X = append(s.X, x)
		s.Y = append(s.Y, float64(i+1)/n)
	}
	return s
}
