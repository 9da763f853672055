package core

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestExpNegAccuracy sweeps the full domain the engine can produce
// ((E^T/E)² up to the weight cutoff squared, plus far beyond) and
// requires ~5e-13 relative agreement with math.Exp (the degree-3
// reduction polynomial truncates at r⁴/24 ≈ 1.4e-13): a relative
// weight error η moves θ̂ by at most η times the window's spread of θ,
// under a femtosecond.
func TestExpNegAccuracy(t *testing.T) {
	checkRel := func(x float64) {
		t.Helper()
		want := math.Exp(-x)
		got := expNeg(x)
		if want == 0 {
			if got != 0 {
				t.Fatalf("expNeg(%g) = %g, want 0", x, got)
			}
			return
		}
		if rel := math.Abs(got/want - 1); rel > 5e-13 {
			t.Fatalf("expNeg(%g) = %g, want %g (rel err %g)", x, got, want, rel)
		}
	}
	forExpNegGrid(checkRel)
}

// forExpNegGrid calls f over the arguments the exponential is tested
// on: a dense sweep of the hot range [0, 85] (cutoff factor 9 squared
// is 81), a sparser one over the extended range, and random points.
func forExpNegGrid(f func(x float64)) {
	for x := 0.0; x <= 85; x += 0.0009765625 {
		f(x)
	}
	for x := 85.0; x <= 670; x += 0.125 {
		f(x)
	}
	src := rng.New(17)
	for i := 0; i < 200000; i++ {
		f(src.Float64() * 85)
	}
}

// TestScanWeightIsExpNeg is the link between expNeg and its inline
// copies: over the same grid, a window of one record with E^T/E = x
// sums to expNeg(x²) bit for bit (offsetScanLoop's copy), and a window
// of four such records — one block of the AVX2 kernel where there is
// one, one record per lane — to exactly four times that.
func TestScanWeightIsExpNeg(t *testing.T) {
	par := scanParams{fnow: 1e9, p: 1e-9, invE: 1, cutoff: 26}
	win := make([]scanRec, 4)
	forExpNegGrid(func(arg float64) {
		x := math.Sqrt(arg)
		for i := range win {
			win[i] = scanRec{ftf: par.fnow, pointErr: x, theta: 1}
		}
		want := expNeg(x * x)
		for _, n := range []int{1, 4} {
			minET, sumW, sumWTheta := offsetScan(win[:n], &par)
			if minET != x || sumW != float64(n)*want || sumWTheta != sumW {
				t.Fatalf("x²=%g, %d records: scan = (%g, %b, %b), want (%g, %b, same)",
					arg, n, minET, sumW, sumWTheta, x, float64(n)*want)
			}
		}
	})
}

func TestExpNegEdgeCases(t *testing.T) {
	if got := expNeg(0); got != 1 {
		t.Errorf("expNeg(0) = %g, want 1", got)
	}
	if got := expNeg(700); got != 0 {
		t.Errorf("expNeg(700) = %g, want hard 0 past the underflow guard", got)
	}
	if got := expNeg(1e300); got != 0 {
		t.Errorf("expNeg(1e300) = %g, want 0", got)
	}
	// Out-of-domain inputs fall back to math.Exp rather than garbage.
	if got, want := expNeg(-2), math.Exp(2); got != want {
		t.Errorf("expNeg(-2) = %g, want %g", got, want)
	}
	if got := expNeg(math.NaN()); !math.IsNaN(got) {
		t.Errorf("expNeg(NaN) = %g, want NaN", got)
	}
	// Tiny arguments: the polynomial path must stay exact-ish at 1.
	for _, x := range []float64{1e-300, 1e-18, 1e-9, 2.7e-3} {
		want := math.Exp(-x)
		if got := expNeg(x); math.Abs(got/want-1) > 5e-13 {
			t.Errorf("expNeg(%g) = %.17g, want %.17g", x, got, want)
		}
	}
}

func BenchmarkExpNeg(b *testing.B) {
	xs := make([]float64, 1024)
	src := rng.New(3)
	for i := range xs {
		xs[i] = src.Float64() * 81
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += expNeg(xs[i&1023])
	}
	_ = sink
}

func BenchmarkMathExp(b *testing.B) {
	xs := make([]float64, 1024)
	src := rng.New(3)
	for i := range xs {
		xs[i] = src.Float64() * 81
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += math.Exp(-xs[i&1023])
	}
	_ = sink
}
