package allan

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// syntheticSeries builds an irregular clock-error series: near-uniform
// poll times with jitter, errors carrying drift, a sinusoid and noise —
// the shape of a detrended offset series.
func syntheticSeries(n int, seed uint64) (ts, xs []float64) {
	src := rng.New(seed)
	t := 0.0
	for i := 0; i < n; i++ {
		t += 16 * (1 + 0.02*(src.Float64()-0.5))
		ts = append(ts, t)
		xs = append(xs, 1e-7*t+2e-5*math.Sin(t/900)+src.Normal(0, 5e-6))
	}
	return ts, xs
}

// TestResamplerBitIdenticalToBatch: the streaming resampler must emit
// exactly the batch Resample output, sample for sample.
func TestResamplerBitIdenticalToBatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		tau0 float64
	}{
		{"dense", 5000, 16},
		{"coarse", 5000, 61.7},
		{"fine", 300, 4.3},
		{"two-points", 2, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, xs := syntheticSeries(tc.n, 7)
			want, err := Resample(ts, xs, tc.tau0)
			if err != nil {
				t.Fatal(err)
			}
			var got []float64
			r, err := NewResampler(tc.tau0, func(v float64) error {
				got = append(got, v)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ts {
				if err := r.Push(ts[i], xs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Finish(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("streaming emitted %d samples, batch %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sample %d differs: %v vs %v", i, got[i], want[i])
				}
			}
			if r.totalEmitted != len(want) {
				t.Errorf("totalEmitted = %d, want %d", r.totalEmitted, len(want))
			}
		})
	}
}

func TestResamplerErrors(t *testing.T) {
	if _, err := NewResampler(0, func(float64) error { return nil }); err == nil {
		t.Error("zero spacing accepted")
	}
	if _, err := NewResampler(1, nil); err == nil {
		t.Error("nil sink accepted")
	}
	r, _ := NewResampler(1, func(float64) error { return nil })
	if err := r.Finish(); err == nil {
		t.Error("Finish with no points accepted")
	}
	if err := r.Push(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Push(1, 0); err == nil {
		t.Error("non-increasing time accepted")
	}
	if err := r.Finish(); err == nil {
		t.Error("Finish with one point accepted")
	}
}

// TestFoldBitIdenticalToBatchCurve: folding a uniform series must
// reproduce the batch Curve on the same grid, bit for bit.
func TestFoldBitIdenticalToBatchCurve(t *testing.T) {
	src := rng.New(3)
	x := make([]float64, 4000)
	for i := range x {
		x[i] = 1e-7*float64(i) + src.Normal(0, 3e-6)
	}
	const tau0, perDecade = 16.0, 4

	want, err := Curve(x, tau0, perDecade)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := CurveGrid(len(x), perDecade)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFold(tau0, ms)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		f.Add(v)
	}
	got := f.Points()
	if len(got) != len(want) {
		t.Fatalf("fold has %d points, batch %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs:\n fold  %+v\n batch %+v", i, got[i], want[i])
		}
	}
	if f.N() != len(x) {
		t.Errorf("N = %d, want %d", f.N(), len(x))
	}
}

// TestFoldMemoryBounded: the ring is sized by the largest scale, not
// the series length.
func TestFoldMemoryBounded(t *testing.T) {
	f, err := NewFold(16, []int{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(f.ring); n != 201 {
		t.Fatalf("ring holds %d samples, want 2·100+1", n)
	}
	src := rng.New(9)
	for i := 0; i < 100000; i++ {
		f.Add(src.Normal(0, 1))
	}
	if n := len(f.ring); n != 201 {
		t.Fatalf("ring grew to %d", n)
	}
	for _, p := range f.Points() {
		if p.Deviation <= 0 || math.IsNaN(p.Deviation) {
			t.Fatalf("bad deviation %+v", p)
		}
	}
}

// TestStreamedPipelineEndToEnd: irregular series → streaming resampler
// feeding a fold directly must equal batch Resample + Curve.
func TestStreamedPipelineEndToEnd(t *testing.T) {
	ts, xs := syntheticSeries(6000, 21)
	const tau0, perDecade = 16.0, 4

	uniform, err := Resample(ts, xs, tau0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Curve(uniform, tau0, perDecade)
	if err != nil {
		t.Fatal(err)
	}

	// The streaming side sizes the grid from the sample count implied
	// by the time span, as the experiment harness does.
	n := int((ts[len(ts)-1]-ts[0])/tau0) + 1
	ms, err := CurveGrid(n, perDecade)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFold(tau0, ms)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewResampler(tau0, func(v float64) error { f.Add(v); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		if err := r.Push(ts[i], xs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if f.N() != len(uniform) {
		t.Fatalf("fold consumed %d samples, batch resample produced %d", f.N(), len(uniform))
	}
	got := f.Points()
	if len(got) != len(want) {
		t.Fatalf("fold has %d points, batch %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs:\n fold  %+v\n batch %+v", i, got[i], want[i])
		}
	}
}

func TestFoldValidation(t *testing.T) {
	if _, err := NewFold(0, []int{1}); err == nil {
		t.Error("zero spacing accepted")
	}
	if _, err := NewFold(16, nil); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := NewFold(16, []int{0}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := CurveGrid(2, 4); err == nil {
		t.Error("too-short series accepted")
	}
	if _, err := CurveGrid(100, 0); err == nil {
		t.Error("perDecade=0 accepted")
	}
}
