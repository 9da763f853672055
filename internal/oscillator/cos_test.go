package oscillator

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/cpuid"
	"repro/internal/rng"
)

// checkCos4 holds cos4 to the Go expression it replaces, bit for bit in
// every lane, and the kernel's done mask to its domain: a lane is the
// kernel's exactly when the CPU has AVX2 and the lane's argument is
// finite with |x| < 2²⁹.
func checkCos4(t *testing.T, tt float64, q *quad) {
	t.Helper()
	got := cos4(tt, q)
	_, done := cosKernel(tt, q)
	for i := range got {
		x := float64(q.omega[i]*tt) + q.phase[i]
		want := math.Cos(x)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("lane %d: cos(%v) = %v (%#016x), math.Cos gives %v (%#016x)",
				i, x, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
		if kernel, in := done&(1<<i) != 0, cpuid.AVX2 && math.Abs(x) < 1<<29; kernel != in {
			t.Errorf("lane %d: x = %v taken by the kernel: %v, want %v", i, x, kernel, in)
		}
	}
}

// passThrough is a quad whose lane arguments at t = 1 are exactly x:
// x·1 + (−0) is x for every x, −0 and NaN included.
func passThrough(x [4]float64) *quad {
	q := quad{omega: x}
	for i := range q.phase {
		q.phase[i] = math.Copysign(0, -1)
	}
	return &q
}

// logCosPath puts the path cos4 takes on this machine in the log.
func logCosPath(t testing.TB) {
	if cpuid.AVX2 {
		t.Log("CPUID reports AVX2: cos4 runs the kernel, math.Cos takes the lanes outside its domain")
	} else {
		t.Log("no AVX2 kernel here: cos4 is math.Cos in every lane")
	}
}

// TestCos4MatchesMathCos runs the arguments where a four-lane cosine
// could part from math.Cos: both sides of every octant boundary k·π/4
// (where the reduction's j and the branch change), ±0, tiny and
// negative arguments, both sides of 2²⁹ (where math.Cos changes
// reduction), NaN and ±Inf. Each value visits every lane, beside three
// others, and then a seeded sweep over every magnitude up to 2³¹.
func TestCos4MatchesMathCos(t *testing.T) {
	logCosPath(t)
	var xs []float64
	near := func(x float64) {
		xs = append(xs, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
	}
	for k := range 400 {
		near(float64(k) * (math.Pi / 4))
		near(float64(k) / (4 / math.Pi))
	}
	for _, k := range []float64{1 << 20, 1<<29/(math.Pi/4) - 1, 1<<29/(math.Pi/4) + 1} {
		near(k * (math.Pi / 4))
	}
	near(1 << 29)
	near(1<<29 - 1)
	xs = append(xs, 0, 5e-324, 1e-300, 1e-9, 1e300, math.MaxFloat64, math.Inf(1), math.NaN())
	for _, x := range xs[:len(xs):len(xs)] {
		xs = append(xs, -x)
	}
	for len(xs)%4 != 0 {
		xs = append(xs, 0)
	}
	for i := 0; i < len(xs); i += 4 {
		x := [4]float64(xs[i : i+4])
		for range 4 {
			checkCos4(t, 1, passThrough(x))
			x = [4]float64{x[1], x[2], x[3], x[0]}
		}
	}
	r := rng.New(29)
	for range 50_000 {
		var x [4]float64
		for i := range x {
			x[i] = (2*r.Float64() - 1) * math.Ldexp(1, r.Intn(32))
		}
		checkCos4(t, 1, passThrough(x))
	}
}

// FuzzCos4 feeds cos4 a time and four lanes of ω and φ straight from
// the fuzzer's bytes, every bit pattern fair — NaN, ±Inf, denormals and
// arguments past 2²⁹ take the Go expression, the rest the kernel — and
// the result must be the Go expression's bit for bit in every lane.
func FuzzCos4(f *testing.F) {
	logCosPath(f)
	seed := func(vs ...float64) []byte {
		var buf []byte
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		return buf
	}
	for _, cfg := range []Config{MachineRoom(), Laboratory()} {
		o, err := New(cfg, 1)
		if err != nil {
			f.Fatal(err)
		}
		q := o.quads[0]
		f.Add(seed(append(append([]float64{14 * 86400}, q.omega[:]...), q.phase[:]...)...))
	}
	f.Add(seed(1, math.Pi/4, -math.Pi/4, 1<<29, math.NaN(), 0, math.Copysign(0, -1), 0, math.Inf(-1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() float64 {
			if len(data) < 8 {
				return 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		tt := next()
		var q quad
		for i := range q.omega {
			q.omega[i] = next()
		}
		for i := range q.phase {
			q.phase[i] = next()
		}
		checkCos4(t, tt, &q)
	})
}

// TestWanderIntegralTermOrder holds the sinusoids' integral to the sum
// the oscillator took before cos4: one math.Cos per term, added term by
// term in order. The term counts fill one quad, part of one, and one
// and a half; the random walk is off, so the sum is the whole integral.
func TestWanderIntegralTermOrder(t *testing.T) {
	temp := MachineRoom()
	temp.Temp = TempCycle{AmplitudePPM: 0.02, Phase: 0.5, Harmonic2: 0.3, WeeklyMod: 0.2}
	for name, cfg := range map[string]Config{"MachineRoom": MachineRoom(), "Laboratory": Laboratory(), "MachineRoom+Temp": temp} {
		cfg.RandomWalkStepPPM = 0
		o := mustNew(t, cfg, 7)
		r := rng.New(3)
		for range 20_000 {
			tt := r.Float64() * 60 * 86400
			want := 0.0
			for _, s := range o.terms {
				want += float64(s.aOverOmega * (s.cosPhase - math.Cos(float64(2*math.Pi/s.Period*tt)+s.Phase)))
			}
			if got := o.wanderIntegral(tt); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s (%d terms): wanderIntegral(%v) = %v, term-by-term math.Cos gives %v", name, len(o.terms), tt, got, want)
			}
		}
	}
}
