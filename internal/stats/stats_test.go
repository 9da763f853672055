package stats

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{3, 1, 2, 5, 4}
	s := NewSorted(xs)
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("P100 = %v", got)
	}
	if got := s.Percentile(50); got != 3 {
		t.Errorf("P50 = %v", got)
	}
	if got := s.Percentile(25); got != 2 {
		t.Errorf("P25 = %v", got)
	}
	// Interpolation: P10 of [1..5] is 1.4.
	if got := s.Percentile(10); math.Abs(got-1.4) > 1e-12 {
		t.Errorf("P10 = %v, want 1.4", got)
	}
	// NewSorted copies: the input must not be mutated.
	if xs[0] != 3 {
		t.Error("NewSorted mutated its input")
	}
	if single := NewSorted([]float64{7}); single.Percentile(3) != 7 || single.Median() != 7 {
		t.Error("single-element Sorted")
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewSorted(nil) },
		func() { NewSorted([]float64{1}).Percentile(-1) },
		func() { NewSorted([]float64{1}).Percentile(101) },
		func() { NewSorted([]float64{1}).Percentile(math.NaN()) },
		func() { NewSorted([]float64{1, 2}).Percentile(math.NaN()) },
		func() { MinMax(nil) },
	} {
		func() {
			defer func() {
				switch r := recover().(type) {
				case nil:
					t.Error("expected panic")
				case runtime.Error:
					t.Errorf("panicked in the runtime, not on the argument: %v", r)
				}
			}()
			f()
		}()
	}
}

func TestPercentileOrderingQuick(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q := NewSorted(xs).Quantiles(1, 25, 50, 75, 99)
		return sort.Float64sAreSorted(q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianIQRGaussian(t *testing.T) {
	src := rng.New(7)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = src.Normal(10, 2)
	}
	s := NewSorted(xs)
	if med := s.Median(); math.Abs(med-10) > 0.05 {
		t.Errorf("median = %v", med)
	}
	// IQR of a Gaussian is 1.349σ.
	if iqr := s.IQR(); math.Abs(iqr-1.349*2) > 0.05 {
		t.Errorf("IQR = %v, want ~%v", iqr, 1.349*2)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{4, 2, 4, 4, 5, 5, 9, 7}
	lo, hi := MinMax(xs)
	if lo != 2 || hi != 9 {
		t.Errorf("minmax = %v, %v", lo, hi)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{-1, 0, 0.5, 0.999, 1, 5}, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("under=%d over=%d", h.Under, h.Over)
	}
	if h.Counts[0] != 1 || h.Counts[2] != 1 || h.Counts[3] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.N != 6 {
		t.Errorf("N = %d", h.N)
	}
	if c := h.BinCenter(0); math.Abs(c-0.125) > 1e-12 {
		t.Errorf("bin 0 center = %v", c)
	}
	if f := h.Fraction(0); math.Abs(f-1.0/6) > 1e-12 {
		t.Errorf("fraction = %v", f)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewHistogram(nil, 1, 1, 4); err == nil {
		t.Error("empty range accepted")
	}
}

func TestHistogramEdgeValue(t *testing.T) {
	// A value infinitesimally below Hi must land in the last bin, not
	// out of range, even under float rounding.
	h, err := NewHistogram(nil, 0, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(math.Nextafter(0.3, 0))
	if h.Counts[2] != 1 || h.Over != 0 {
		t.Errorf("edge value: counts=%v over=%d", h.Counts, h.Over)
	}
}

func TestQuantilesSingleSortConsistent(t *testing.T) {
	src := rng.New(8)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = src.Float64()
	}
	s := NewSorted(xs)
	levels := []float64{99, 75, 50, 25, 1}
	for i, q := range s.Quantiles(levels...) {
		if want := s.Percentile(levels[i]); q != want {
			t.Errorf("Quantiles level %v = %v, Percentile = %v", levels[i], q, want)
		}
	}
}

func BenchmarkQuantiles(b *testing.B) {
	src := rng.New(1)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = src.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSorted(xs).Quantiles(99, 75, 50, 25, 1)
	}
}
