package timebase

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPPMRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1e-9, 5e-5, -3.2e-7, 1} {
		if got := FromPPM(PPM(v)); math.Abs(got-v) > 1e-18 {
			t.Errorf("FromPPM(PPM(%g)) = %g", v, got)
		}
	}
}

func TestPPMRoundTripQuick(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e300 {
			return true // *1e6 would overflow; out of physical range anyway
		}
		got := FromPPM(PPM(v))
		return got == v || math.Abs(got-v) <= 1e-12*math.Abs(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOffsetAtRateTable1(t *testing.T) {
	// Reproduces the bold entries of Table 1: at 0.1 PPM the error over
	// the SKM scale (1000 s) is 0.1 ms, and over 1 s it is 0.1 µs.
	cases := []struct {
		dt, ppm, want Seconds
	}{
		{1e-3, 0.02, 0.02e-9},
		{1e-3, 0.1, 0.1e-9},
		{0.1, 0.1, 10e-9},
		{1, 0.02, 20e-9},
		{1, 0.1, 0.1e-6},
		{1000, 0.02, 20e-6},
		{1000, 0.1, 0.1e-3},
		{Day, 0.02, 1.728e-3},
		{Day, 0.1, 8.64e-3},
		{Week, 0.1, 60.48e-3},
	}
	for _, c := range cases {
		got := OffsetAtRate(c.dt, FromPPM(c.ppm))
		if math.Abs(got-c.want) > 1e-9*math.Abs(c.want)+1e-18 {
			t.Errorf("OffsetAtRate(%g s, %g PPM) = %g, want %g", c.dt, c.ppm, got, c.want)
		}
	}
}

func TestCounterSpan(t *testing.T) {
	p := 2e-9 // 500 MHz
	if got := CounterSpan(0, 500_000_000, p); math.Abs(got-1) > 1e-12 {
		t.Errorf("1 s span = %g", got)
	}
	if got := CounterSpan(500_000_000, 0, p); math.Abs(got+1) > 1e-12 {
		t.Errorf("reverse span = %g, want -1", got)
	}
	// Large counts: 3 months at 548 MHz must not lose precision beyond ns.
	const f = 548_655_270.0
	from := uint64(12345)
	to := from + uint64(f*90*Day)
	got := CounterSpan(from, to, 1/f)
	if math.Abs(got-90*Day) > 1e-5 {
		t.Errorf("90-day span = %.9g, want %.9g", got, 90*Day)
	}
}

func TestCounterSpanAntisymmetric(t *testing.T) {
	f := func(a, b uint64, pScaled uint32) bool {
		p := 1e-9 * (1 + float64(pScaled)/float64(math.MaxUint32))
		return CounterSpan(a, b, p) == -CounterSpan(b, a, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		dt   Seconds
		want string
	}{
		{0, "0s"},
		{1.5e-9, "1.5ns"},
		{30e-6, "30µs"},
		{-31e-6, "-31µs"},
		{0.38e-3, "380µs"},
		{1.2e-3, "1.2ms"},
		{14.2e-3, "14.2ms"},
		{16, "16s"},
		{120, "2min"},
		{7200, "2h"},
		{3.8 * Day, "3.8d"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.dt); got != c.want {
			t.Errorf("FormatDuration(%g) = %q, want %q", c.dt, got, c.want)
		}
	}
}

func TestFormatDurationNonEmpty(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		s := FormatDuration(v)
		return s != "" && !strings.Contains(s, "NaN")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
