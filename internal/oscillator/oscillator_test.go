package oscillator

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/timebase"
)

func mustNew(t *testing.T, cfg Config, seed uint64) *Oscillator {
	t.Helper()
	o, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config should fail validation")
	}
	bad := Laboratory()
	bad.Sinusoids = append(bad.Sinusoids, Sinusoid{AmplitudePPM: 1, Period: 0})
	if err := bad.Validate(); err == nil {
		t.Error("zero-period sinusoid should fail validation")
	}
	bad2 := Laboratory()
	bad2.RandomWalkStep = 0
	if err := bad2.Validate(); err == nil {
		t.Error("RW without step should fail validation")
	}
	if err := Laboratory().Validate(); err != nil {
		t.Errorf("Laboratory() invalid: %v", err)
	}
	if err := MachineRoom().Validate(); err != nil {
		t.Errorf("MachineRoom() invalid: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	a := mustNew(t, MachineRoom(), 99)
	b := mustNew(t, MachineRoom(), 99)
	for _, tt := range []float64{0, 1, 16, 1000, 86400, 6 * 86400} {
		if a.ReadTSC(tt) != b.ReadTSC(tt) {
			t.Fatalf("same-seed oscillators diverge at t=%v", tt)
		}
	}
}

func TestSeedChangesPath(t *testing.T) {
	a := mustNew(t, MachineRoom(), 1)
	b := mustNew(t, MachineRoom(), 2)
	diff := false
	for _, tt := range []float64{1000, 10000, 100000} {
		if a.ReadTSC(tt) != b.ReadTSC(tt) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical counter paths")
	}
}

func TestPhaseMonotonic(t *testing.T) {
	o := mustNew(t, Laboratory(), 5)
	f := func(raw []float64) bool {
		ts := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				ts = append(ts, math.Mod(math.Abs(v), timebase.Week))
			}
		}
		sort.Float64s(ts)
		prevT, prevPh := -1.0, math.Inf(-1)
		for _, tt := range ts {
			ph := o.Phase(tt)
			if tt > prevT && ph < prevPh {
				return false
			}
			if tt > prevT+1e-6 && ph <= prevPh {
				return false // strictly increasing away from ties
			}
			prevT, prevPh = tt, ph
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadTSCMonotonic(t *testing.T) {
	o := mustNew(t, MachineRoom(), 7)
	prev := o.ReadTSC(0)
	for tt := 1.0; tt < 2*86400; tt += 61.7 {
		cur := o.ReadTSC(tt)
		if cur <= prev {
			t.Fatalf("counter not monotonic at t=%v: %d <= %d", tt, cur, prev)
		}
		prev = cur
	}
}

func TestMeanPeriod(t *testing.T) {
	cfg := MachineRoom()
	o := mustNew(t, cfg, 1)
	nom := 1 / cfg.NominalHz
	got := o.MeanPeriod()
	// The mean period is exactly 1/(1+gamma0) relative to nominal.
	wantRate := 1/(1+timebase.FromPPM(cfg.SkewPPM)) - 1
	gotRate := got/nom - 1
	if math.Abs(gotRate-wantRate) > 1e-12 {
		t.Errorf("mean period rate offset = %v, want %v", gotRate, wantRate)
	}
}

func TestAverageRateErrorNearSkew(t *testing.T) {
	for name, cfg := range map[string]Config{"lab": Laboratory(), "mr": MachineRoom()} {
		o := mustNew(t, cfg, 11)
		got := timebase.PPM(o.AverageRateError(0, timebase.Week))
		if math.Abs(got-cfg.SkewPPM) > 0.1 {
			t.Errorf("%s: weekly mean rate error = %v PPM, want %v +- 0.1", name, got, cfg.SkewPPM)
		}
	}
}

func TestStabilityCone(t *testing.T) {
	// Figure 2 of the paper: offset variations of the detrended clock
	// always fall within the +-0.1 PPM cone. Equivalently the average
	// rate error over [t0, t] relative to the long-run mean stays within
	// 0.1 PPM for every interval longer than tau*.
	for name, cfg := range map[string]Config{"lab": Laboratory(), "mr": MachineRoom()} {
		o := mustNew(t, cfg, 3)
		mean := o.AverageRateError(0, 2*timebase.Week)
		for _, span := range []float64{1000, 10000, timebase.Day, timebase.Week} {
			for t0 := 0.0; t0+span <= 2*timebase.Week; t0 += 2 * timebase.Week / 7 {
				dev := timebase.PPM(o.AverageRateError(t0, t0+span) - mean)
				if math.Abs(dev) > 0.1 {
					t.Errorf("%s: rate over [%v,%v] deviates %v PPM from mean (>0.1)",
						name, t0, t0+span, dev)
				}
			}
		}
	}
}

func TestRandomWalkBounded(t *testing.T) {
	cfg := Laboratory()
	o := mustNew(t, cfg, 17)
	o.extendRW(int(4 * timebase.Week / cfg.RandomWalkStep))
	bound := timebase.FromPPM(cfg.RandomWalkBoundPPM) * (1 + 1e-12)
	for k, v := range o.rwRate {
		if math.Abs(v) > bound {
			t.Fatalf("random walk escaped bound at step %d: %v", k, v)
		}
	}
}

func TestPhaseContinuityAtRWSteps(t *testing.T) {
	cfg := MachineRoom()
	o := mustNew(t, cfg, 23)
	h := cfg.RandomWalkStep
	for k := 1; k <= 200; k++ {
		tt := float64(k) * h
		before := o.Phase(tt - 1e-7)
		after := o.Phase(tt + 1e-7)
		// 0.2 µs of true time at ~548 MHz is ~110 cycles.
		if d := after - before; d < 0 || d > 1000 {
			t.Fatalf("phase discontinuity at RW step %d: delta=%v cycles", k, d)
		}
	}
}

func TestRateWithinPhysicalRange(t *testing.T) {
	o := mustNew(t, Laboratory(), 31)
	for tt := 0.0; tt < timebase.Week; tt += 977 {
		ppm := timebase.PPM(o.Rate(tt))
		if math.Abs(ppm-o.cfg.SkewPPM) > 0.5 {
			t.Fatalf("instantaneous rate %v PPM too far from skew %v", ppm, o.cfg.SkewPPM)
		}
	}
}

func TestTSC0Offset(t *testing.T) {
	cfg := MachineRoom()
	cfg.TSC0 = 1 << 40
	o := mustNew(t, cfg, 1)
	if got := o.ReadTSC(0); got != cfg.TSC0 {
		t.Errorf("ReadTSC(0) = %d, want TSC0 = %d", got, cfg.TSC0)
	}
}

func TestNegativeReadPanics(t *testing.T) {
	o := mustNew(t, MachineRoom(), 1)
	defer func() {
		if recover() == nil {
			t.Error("ReadTSC before origin did not panic")
		}
	}()
	o.ReadTSC(-5)
}

func BenchmarkReadTSC(b *testing.B) {
	o, err := New(MachineRoom(), 1)
	if err != nil {
		b.Fatal(err)
	}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += o.ReadTSC(float64(i%100000) * 0.9)
	}
	_ = sink
}
