package stats

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// inputShapes generates the test corpus: random, sorted, reverse-sorted,
// constant, heavy-tailed, drifting (a mean that moves through the
// series) and near-zero (straddling the 1 ns zero bucket).
func inputShapes(n int) map[string][]float64 {
	src := rng.New(20041025)
	random := make([]float64, n)
	for i := range random {
		random[i] = src.Normal(-30e-6, 20e-6)
	}
	sortedCopy := NewSorted(random)
	reverse := make([]float64, n)
	for i := range reverse {
		reverse[i] = sortedCopy[len(sortedCopy)-1-i]
	}
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 42.5e-6
	}
	heavy := make([]float64, n)
	for i := range heavy {
		heavy[i] = src.Pareto(1e-5, 1.3)
		if src.Bool(0.5) {
			heavy[i] = -heavy[i]
		}
	}
	drifting := make([]float64, n)
	for i := range drifting {
		drifting[i] = -60e-6 + 80e-6*float64(i)/float64(n) + src.Normal(0, 5e-6)
	}
	nearZero := make([]float64, n)
	for i := range nearZero {
		nearZero[i] = src.Normal(0, 3e-9)
	}
	return map[string][]float64{
		"random":    random,
		"sorted":    []float64(sortedCopy),
		"reversed":  reverse,
		"constant":  constant,
		"heavy":     heavy,
		"drifting":  drifting,
		"near-zero": nearZero,
	}
}

// foldOf folds xs in order.
func foldOf(xs []float64) *ErrFold {
	f := NewErrFold()
	for _, x := range xs {
		f.Add(x)
	}
	return f
}

// absOf returns |x| for each x.
func absOf(xs []float64) []float64 {
	abs := make([]float64, len(xs))
	for i, x := range xs {
		abs[i] = math.Abs(x)
	}
	return abs
}

// summaryBits is a summary as bits, so that comparing two tells 0 from
// −0.
func summaryBits(s ErrSummary) [8]uint64 {
	var b [8]uint64
	for i, v := range [...]float64{s.P01, s.P25, s.P50, s.P75, s.P99, s.AbsP50, s.AbsP99, s.AbsMax} {
		b[i] = math.Float64bits(v)
	}
	return b
}

// levels are the quantile levels the fold tests read: the ends, the
// histogram range of Figure 12 and the paper's percentile curves.
var levels = []float64{0, 0.005, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.995, 1}

// TestStreamingQuantilesExactBelowPrefix pins the fold's exact regime:
// any series no longer than the exact prefix — a two-day experiment
// trace at 16 s polling among them — is summarized exactly, adversarial
// shapes included, and so is one of exactly the prefix's length.
func TestStreamingQuantilesExactBelowPrefix(t *testing.T) {
	for _, n := range []int{20000, exactPrefix} {
		for name, xs := range inputShapes(n) {
			f := foldOf(xs)
			if f.buf == nil {
				t.Fatalf("%s: %d values left the exact regime (prefix %d)", name, n, exactPrefix)
			}
			sorted, abs := NewSorted(xs), NewSorted(absOf(xs))
			for _, p := range levels {
				if got, want := f.Quantile(p), sorted.Percentile(p*100); got != want {
					t.Errorf("%s n=%d p=%v: got %v, want exact %v", name, n, p, got, want)
				}
				if got, want := f.AbsQuantile(p), abs.Percentile(p*100); got != want {
					t.Errorf("%s n=%d |x| p=%v: got %v, want exact %v", name, n, p, got, want)
				}
			}
			if f.N() != n {
				t.Errorf("%s: N=%d, want %d", name, f.N(), n)
			}
		}
	}
}

// TestErrFoldBound holds the bucketed regime to its stated bound on
// every input shape: the level of rank r = p·(n−1) lies in
// [x⌊r⌋ − 2⁻⁸·|x⌊r⌋| − 1 ns, x⌈r⌉ + 2⁻⁸·|x⌈r⌉| + 1 ns], for the signed
// values and for |x|, and the max |x| is exact.
func TestErrFoldBound(t *testing.T) {
	n := exactPrefix + 20000
	for name, xs := range inputShapes(n) {
		f := foldOf(xs)
		if f.buf != nil {
			t.Fatalf("%s: did not leave the exact regime past the prefix", name)
		}
		sorted, abs := NewSorted(xs), NewSorted(absOf(xs))
		for _, p := range levels {
			checkBound(t, name, p, f.Quantile(p), sorted)
			checkBound(t, name+" |x|", p, f.AbsQuantile(p), abs)
		}
		if got, want := f.Summary().AbsMax, abs[n-1]; got != want {
			t.Errorf("%s: max |x| %v, want exact %v", name, got, want)
		}
	}
}

func checkBound(t *testing.T, name string, p, got float64, s Sorted) {
	t.Helper()
	r := p * float64(len(s)-1)
	lo, hi := s[int(math.Floor(r))], s[int(math.Ceil(r))]
	const ns = 1e-9 // the zero bucket's edge, stated here rather than read from the code under test
	if !(got >= lo-math.Abs(lo)/256-ns && got <= hi+math.Abs(hi)/256+ns) {
		t.Errorf("%s p=%v: %.6g outside the bound of the order statistics [%.6g, %.6g]",
			name, p, got, lo, hi)
	}
}

// TestErrFoldOrderFree: a summary is a function of the multiset folded,
// on both sides of the prefix. A permutation of the series, and the
// series split at any cut into two folds then merged, give the same
// bits as the series folded in order, cuts either side of the prefix
// included.
func TestErrFoldOrderFree(t *testing.T) {
	src := rng.New(7)
	for _, n := range []int{20000, exactPrefix + 20000} {
		for name, xs := range inputShapes(n) {
			want := summaryBits(foldOf(xs).Summary())

			perm := append([]float64(nil), xs...)
			for i := len(perm) - 1; i > 0; i-- {
				j := src.Intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			if got := summaryBits(foldOf(perm).Summary()); got != want {
				t.Errorf("%s n=%d: a permutation moved the summary", name, n)
			}

			for _, cut := range []int{0, 1, n / 2, exactPrefix - 1, exactPrefix, exactPrefix + 1, n - 1, n} {
				if cut > n {
					continue
				}
				a, b := foldOf(xs[:cut]), foldOf(xs[cut:])
				a.Merge(b)
				if a.N() != n {
					t.Errorf("%s n=%d cut %d: merged N=%d", name, n, cut, a.N())
				}
				if got := summaryBits(a.Summary()); got != want {
					t.Errorf("%s n=%d cut %d: split-then-Merge moved the summary", name, n, cut)
				}
				if b.N() != n-cut {
					t.Errorf("%s n=%d cut %d: Merge changed its argument", name, n, cut)
				}
			}
		}
	}
}

// TestStreamingFiveNumMatchesBatch: below the exact-prefix budget the
// fold's five signed levels are the batch order statistics of the same
// sample.
func TestStreamingFiveNumMatchesBatch(t *testing.T) {
	for name, xs := range inputShapes(20000) {
		f := foldOf(xs)
		sorted, s := NewSorted(xs), f.Summary()
		got := []float64{s.P01, s.P25, s.P50, s.P75, s.P99}
		for i, p := range []float64{1, 25, 50, 75, 99} {
			if want := sorted.Percentile(p); got[i] != want {
				t.Errorf("%s p%v: fold %v vs batch %v", name, p, got[i], want)
			}
		}
		if f.N() != len(xs) {
			t.Errorf("%s: N=%d, want %d", name, f.N(), len(xs))
		}
	}
}

// TestMedianAbsMatchesBatch: below the exact-prefix budget the fold's
// |x| median and p99 are the batch order statistics of |x|, and its max
// is the exact max |x|.
func TestMedianAbsMatchesBatch(t *testing.T) {
	for name, xs := range inputShapes(20000) {
		f := foldOf(xs)
		a, s := NewSorted(absOf(xs)), f.Summary()
		if got, want := s.AbsP50, a.Median(); got != want {
			t.Errorf("%s: fold median|x| %.6g vs batch %.6g", name, got, want)
		}
		if got, want := s.AbsP99, a.Percentile(99); got != want {
			t.Errorf("%s: fold p99|x| %.6g vs batch %.6g", name, got, want)
		}
		if got, want := s.AbsMax, a[len(a)-1]; got != want {
			t.Errorf("%s: fold max|x| %.6g vs exact %.6g", name, got, want)
		}
	}
}

// TestFiveNumOf: on ordered input the fold's five signed levels are
// strictly ordered and the median is the interpolated middle.
func TestFiveNumOf(t *testing.T) {
	f := NewErrFold()
	for i := 0; i < 1000; i++ {
		f.Add(float64(i))
	}
	s := f.Summary()
	if !(s.P01 < s.P25 && s.P25 < s.P50 && s.P50 < s.P75 && s.P75 < s.P99) {
		t.Errorf("five signed levels not ordered: %+v", s)
	}
	if s.P50 != 499.5 {
		t.Errorf("P50 = %v, want 499.5", s.P50)
	}
	if s.AbsMax != 999 {
		t.Errorf("AbsMax = %v, want 999", s.AbsMax)
	}
}

// TestErrFoldLevelsIndependent: on both sides of the prefix each level
// of the summary is what that level reads when it is the only one
// queried, so reading more levels, in any order, moves none.
func TestErrFoldLevelsIndependent(t *testing.T) {
	for _, n := range []int{20000, exactPrefix + 20000} {
		for name, xs := range inputShapes(n) {
			s := summaryBits(foldOf(xs).Summary())
			alone := []func(*ErrFold) float64{
				func(f *ErrFold) float64 { return f.Quantile(0.01) },
				func(f *ErrFold) float64 { return f.Quantile(0.25) },
				func(f *ErrFold) float64 { return f.Quantile(0.5) },
				func(f *ErrFold) float64 { return f.Quantile(0.75) },
				func(f *ErrFold) float64 { return f.Quantile(0.99) },
				func(f *ErrFold) float64 { return f.AbsQuantile(0.5) },
				func(f *ErrFold) float64 { return f.AbsQuantile(0.99) },
			}
			for i, q := range alone {
				if got := math.Float64bits(q(foldOf(xs))); got != s[i] {
					t.Errorf("%s n=%d level %d: alone %v, in the summary %v",
						name, n, i, math.Float64frombits(got), math.Float64frombits(s[i]))
				}
			}
		}
	}
}

// TestStreamingQuantilesValidation: a level outside [0, 1], NaN
// included, and any level of an empty fold panic on the argument, in
// both regimes.
func TestStreamingQuantilesValidation(t *testing.T) {
	exact, bucketed := foldOf(make([]float64, 10)), foldOf(make([]float64, exactPrefix+1))
	var fns []func()
	for _, f := range []*ErrFold{exact, bucketed} {
		for _, p := range []float64{-0.01, 1.01, math.NaN(), math.Inf(1)} {
			fns = append(fns, func() { f.Quantile(p) }, func() { f.AbsQuantile(p) })
		}
	}
	fns = append(fns, func() { NewErrFold().Quantile(0.5) }, func() { NewErrFold().AbsQuantile(0.5) })
	for i, fn := range fns {
		func() {
			defer func() {
				switch r := recover().(type) {
				case nil:
					t.Errorf("case %d: expected panic", i)
				case runtime.Error:
					t.Errorf("case %d: panicked in the runtime, not on the argument: %v", i, r)
				}
			}()
			fn()
		}()
	}
}

func TestErrFoldEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on an empty fold")
		}
	}()
	NewErrFold().Summary()
}
