// Package stats provides the robust summary statistics the paper's
// evaluation reports. The paper deliberately summarizes error series
// with order statistics rather than moments — congestion makes the
// tails heavy, and a mean would be dominated by the rare excursions
// the algorithms are designed to ignore — so the package centers on:
//
//   - Percentile/Quantiles/Median/IQR over a Sorted copy: exact order
//     statistics, linear interpolation between them;
//   - ErrFold: the one summary of an error series against ground truth
//     — the paper's percentile curves at levels 1, 25, 50, 75 and 99
//     (Figures 9, 10 and 12) and the median, 99th percentile and maximum
//     of |error| — folded online in bounded memory, mergeable and
//     order-free: exact up to 32 768 values, within 2⁻⁸·|x| + 1 ns of
//     the exact order statistics past them (stream.go);
//   - Histogram: fixed-bin counts with fractional normalization;
//   - MinMax: the extrema, for spreads across a sweep.
//
// Batch inputs are plain []float64; functions panic on empty input or
// out-of-range parameters — callers own validation, these are
// evaluation-path helpers, not a public API.
//
//repro:deterministic
package stats

import (
	"fmt"
	"sort"
)

// Sorted is a sorted copy of a sample: the one entry point to every
// exact order statistic in this package. Build it once per sample and
// query it — each query is O(1) against the one O(n log n) sort.
type Sorted []float64

// NewSorted returns a sorted copy of xs. It panics on empty input;
// callers own validation, like the rest of the package.
func NewSorted(xs []float64) Sorted {
	if len(xs) == 0 {
		panic("stats: NewSorted of empty slice")
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return Sorted(cp)
}

// checkPercentile panics unless p is in [0,100]; a NaN p is out of
// range too.
func checkPercentile(p float64) {
	if !(p >= 0 && p <= 100) {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between order statistics. It panics on out-of-range p.
func (s Sorted) Percentile(p float64) float64 {
	checkPercentile(p)
	if len(s) == 1 {
		return s[0]
	}
	pos := float64(p / 100 * float64(len(s)-1))
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[lo+1]*frac)
}

// Median returns the 50th percentile.
func (s Sorted) Median() float64 { return s.Percentile(50) }

// IQR returns the inter-quartile range (75th − 25th percentile).
func (s Sorted) IQR() float64 { return s.Percentile(75) - s.Percentile(25) }

// Quantiles evaluates several percentiles against the one sort.
func (s Sorted) Quantiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = s.Percentile(p)
	}
	return out
}

// MinMax returns the extrema of xs.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Histogram is a fixed-bin histogram over [Lo, Hi); values outside the
// range are counted in Under/Over.
type Histogram struct {
	Lo, Hi      float64
	Counts      []int
	Under, Over int
	N           int
}

// NewHistogram builds a histogram of xs with the given number of bins.
func NewHistogram(xs []float64, lo, hi float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("stats: bins must be >= 1")
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("stats: invalid range [%v, %v)", lo, hi)
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	for _, x := range xs {
		h.Add(x)
	}
	return h, nil
}

// Add accumulates one value.
func (h *Histogram) Add(x float64) {
	h.N++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if idx >= len(h.Counts) { // guard float edge
			idx = len(h.Counts) - 1
		}
		h.Counts[idx]++
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + float64((float64(i)+0.5)*w)
}

// Fraction returns the fraction of all added values that landed in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.N)
}
