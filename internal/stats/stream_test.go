package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// P² error budget, documented per input shape as a fraction of the
// sample's inter-quartile range (plus an absolute floor for degenerate
// spreads). These are the bounds the experiment rewiring relies on —
// the shape checks in internal/experiments sit an order of magnitude
// above the well-behaved rows:
//
//   - random (the shape experiment error series actually have):
//     0.05·IQR at interior levels, 0.35·IQR at the 1/99 tails;
//   - monotone sorted/reversed (the adversarial worst case — P²'s
//     markers trail a drifting distribution): 0.3·IQR at the median,
//     1.2·IQR elsewhere. Genuinely drifting inputs should be windowed,
//     as the longrun experiment does;
//   - constant: exact to 1e-12;
//   - heavy-tailed (Pareto α=1.3, infinite variance): interior levels
//     as random; tails within 50% relative.
const (
	p2TolIQRFrac     = 0.05
	p2TolIQRTail     = 0.35
	p2TolMonoMedian  = 0.3
	p2TolMonoOther   = 1.2
	p2TolHeavyTailed = 0.5 // relative, tail levels only
	p2TolAbs         = 1e-12
)

// p2Tol returns the documented absolute tolerance for one shape/level
// pair, or a negative value when the relative heavy-tail bound applies.
func p2Tol(shape string, p, iqr float64) float64 {
	tail := p <= 0.01 || p >= 0.99
	switch shape {
	case "sorted", "reversed":
		if p == 0.5 {
			return p2TolMonoMedian*iqr + p2TolAbs
		}
		return p2TolMonoOther*iqr + p2TolAbs
	case "heavy":
		if tail {
			return -1
		}
	}
	if tail {
		return p2TolIQRTail*iqr + p2TolAbs
	}
	return p2TolIQRFrac*iqr + p2TolAbs
}

// inputShapes generates the test corpus: random, sorted (adversarial
// for P² marker movement), reverse-sorted, constant, and heavy-tailed.
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
	return map[string][]float64{
		"random":   random,
		"sorted":   []float64(sortedCopy),
		"reversed": reverse,
		"constant": constant,
		"heavy":    heavy,
	}
}

func TestP2QuantilePanics(t *testing.T) {
	sample := NewSorted([]float64{5, 1, 4, 2, 3})
	for _, fn := range []func(){
		func() { newP2Quantile(0, sample) },
		func() { newP2Quantile(1, sample) },
		func() { newP2Quantile(-0.5, sample) },
		func() { newP2Quantile(1.5, sample) },
		func() { newP2Quantile(0.5, sample[:4]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestStreamingQuantilesExactBelowPrefix pins the hybrid's headline
// property: any stream shorter than the exact-prefix budget — every
// quick-mode experiment series — is summarized *exactly*, adversarial
// shapes included.
func TestStreamingQuantilesExactBelowPrefix(t *testing.T) {
	levels := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
	for name, xs := range inputShapes(20000) {
		s := NewStreamingQuantiles(levels...)
		for _, x := range xs {
			s.Add(x)
		}
		if s.ests != nil {
			t.Fatalf("%s: %d observations left the exact regime (budget %d)",
				name, len(xs), DefaultExactPrefix)
		}
		sorted := NewSorted(xs)
		for i, p := range levels {
			if got, want := s.Value(i), sorted.Percentile(p*100); got != want {
				t.Errorf("%s p=%.2f: got %v, want exact %v", name, p, got, want)
			}
		}
		if s.N() != len(xs) {
			t.Errorf("%s: N=%d, want %d", name, s.N(), len(xs))
		}
	}
}

// TestStreamingQuantilesWarmStarted forces the regime switch with a
// small prefix budget and holds the warm-started tail to the documented
// P² tolerances on all five input shapes; the markers begin on the
// exact order statistics, the only way P² ever starts.
func TestStreamingQuantilesWarmStarted(t *testing.T) {
	levels := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
	for name, xs := range inputShapes(50000) {
		s := NewStreamingQuantiles(levels...)
		s.limit = 4096
		for _, x := range xs {
			s.Add(x)
		}
		if s.ests == nil {
			t.Fatalf("%s: did not switch regimes past the prefix", name)
		}
		sorted := NewSorted(xs)
		iqr := sorted.IQR()
		for i, p := range levels {
			if name == "heavy" && p == 0.5 {
				// The ±Pareto mixture has zero density in (−x_m, x_m):
				// its median is sign-ambiguous and any estimator may land
				// on either edge of the gap, a property of the input, not
				// the estimator.
				continue
			}
			got, want := s.Value(i), sorted.Percentile(p*100)
			tol := p2Tol(name, p, iqr)
			if tol < 0 {
				if rel := math.Abs(got-want) / math.Abs(want); rel > p2TolHeavyTailed {
					t.Errorf("%s p=%.2f: hybrid %.3g vs exact %.3g (rel %.2f)",
						name, p, got, want, rel)
				}
				continue
			}
			if d := math.Abs(got - want); d > tol {
				t.Errorf("%s p=%.2f: hybrid %.6g vs exact %.6g (|Δ|=%.3g > tol %.3g)",
					name, p, got, want, d, tol)
			}
		}
	}
}

func TestStreamingQuantilesValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewStreamingQuantiles(0.5).Value(0) },
		func() { NewStreamingQuantiles(1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestStreamingFiveNumMatchesBatch: below the exact-prefix budget the
// fold's five signed levels are the batch order statistics of the same
// sample.
func TestStreamingFiveNumMatchesBatch(t *testing.T) {
	for name, xs := range inputShapes(20000) {
		f := NewErrFold()
		for _, x := range xs {
			f.Add(x)
		}
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
		f := NewErrFold()
		abs := make([]float64, len(xs))
		for i, x := range xs {
			f.Add(x)
			abs[i] = math.Abs(x)
		}
		a, s := NewSorted(abs), f.Summary()
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

// TestErrFoldLevelsIndependent: past the prefix each level of the fold
// is bit-equal to a one-level StreamingQuantiles fed the same values —
// folding more levels beside it moves none.
func TestErrFoldLevelsIndependent(t *testing.T) {
	levels := []float64{0.01, 0.25, 0.5, 0.75, 0.99, 0.5, 0.99} // signed, then |x|
	for name, xs := range inputShapes(DefaultExactPrefix + 20000) {
		f := NewErrFold()
		one := make([]*StreamingQuantiles, len(levels))
		for i, p := range levels {
			one[i] = NewStreamingQuantiles(p)
		}
		for _, x := range xs {
			f.Add(x)
			for i, q := range one {
				if i < 5 {
					q.Add(x)
				} else {
					q.Add(math.Abs(x))
				}
			}
		}
		if f.signed.ests == nil || f.abs.ests == nil {
			t.Fatalf("%s: did not switch regimes past the prefix", name)
		}
		s := f.Summary()
		for i, got := range []float64{s.P01, s.P25, s.P50, s.P75, s.P99, s.AbsP50, s.AbsP99} {
			if want := one[i].Value(0); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s level %d (%v): fold %v, one-level %v", name, i, levels[i], got, want)
			}
		}
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
