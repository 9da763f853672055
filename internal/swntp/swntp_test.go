package swntp

import (
	"math"
	"sort"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/timebase"
)

func run(t testing.TB, tr *sim.Trace) (*Clock, []Update, []sim.MultiExchange) {
	t.Helper()
	cfg := DefaultConfig(1.0/548655270, tr.Scenario.PollPeriod)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := tr.Completed()
	ups := make([]Update, len(ex))
	for i, e := range ex {
		ups[i] = c.ProcessExchange(e.Ta, e.Tf, e.Tb, e.Te)
	}
	return c, ups, ex
}

func TestValidate(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(DefaultConfig(2e-9, 16)); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestConvergesToServerTime(t *testing.T) {
	tr, err := sim.Generate(sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 61))
	if err != nil {
		t.Fatal(err)
	}
	c, _, ex := run(t, tr)

	// After a day the disciplined clock should track true time to
	// NTP-level accuracy: bounded by ~RTT, i.e. low milliseconds.
	var errsAbs []float64
	for _, e := range ex {
		if e.TrueTf < 20*timebase.Hour {
			continue
		}
		errsAbs = append(errsAbs, math.Abs(c.Read(e.Tf)-e.TrueTf))
	}
	// Re-reading history with the final clock state is not meaningful;
	// instead check the last reading directly.
	last := ex[len(ex)-1]
	if d := math.Abs(c.Read(last.Tf) - last.TrueTf); d > 5*timebase.Millisecond {
		t.Errorf("SW-NTP error %v after a day, want < 5 ms", d)
	}
	_ = errsAbs
}

func TestTracksAfterInit(t *testing.T) {
	tr, err := sim.Generate(sim.NewScenario(sim.MachineRoom, sim.ServerLoc(), 16, 6*timebase.Hour, 62))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1.0/548655270, 16)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var errs []float64
	for _, e := range tr.Completed() {
		c.ProcessExchange(e.Ta, e.Tf, e.Tb, e.Te)
		if e.TrueTf > 2*timebase.Hour {
			errs = append(errs, c.Read(e.Tf)-e.TrueTf)
		}
	}
	sort.Float64s(errs)
	med := math.Abs(errs[len(errs)/2])
	if med > 2*timebase.Millisecond {
		t.Errorf("median |error| %v, want < 2 ms for a local server", med)
	}
}

func TestStepsOnLargeServerFault(t *testing.T) {
	// A 150 ms server error exceeds the 128 ms step threshold: the
	// SW-NTP clock must step (reset) — the paper's headline criticism —
	// in contrast to the core engine's sanity check containment.
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, 6*timebase.Hour, 63)
	sc.Servers[0].Server.Faults = []netem.FaultWindow{
		{From: 3 * timebase.Hour, To: 3*timebase.Hour + 10*timebase.Minute, Offset: 150 * timebase.Millisecond},
	}
	tr, err := sim.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	c, _, _ := run(t, tr)
	if c.Steps() < 2 { // initial set + at least one fault-induced reset
		t.Errorf("steps = %d, want the fault to cause a reset", c.Steps())
	}
}

func TestFrequencyBounded(t *testing.T) {
	tr, err := sim.Generate(sim.NewScenario(sim.Laboratory, sim.ServerExt(), 64, timebase.Day, 64))
	if err != nil {
		t.Fatal(err)
	}
	c, ups, _ := run(t, tr)
	cfg := DefaultConfig(1.0/548655270, 64)
	for i, u := range ups {
		if math.Abs(u.Freq) > cfg.MaxFreqAdj*(1+1e-12) {
			t.Fatalf("freq %v exceeds bound at update %d", u.Freq, i)
		}
	}
	if math.Abs(c.freq) > cfg.MaxFreqAdj {
		t.Errorf("final freq %v out of bounds", c.freq)
	}
}

func TestReadMonotoneDuringSlew(t *testing.T) {
	// Slewing preserves monotonicity (no backwards reads) even with a
	// negative pending correction, because the slew rate (500 PPM) is
	// far below the clock rate.
	cfg := DefaultConfig(2e-9, 16)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.ProcessExchange(1000, 500_001_000, 1.0, 1.0001)
	// Force a negative residual via a second exchange reporting the
	// clock ahead by 10 ms.
	c.ProcessExchange(1_000_000_000, 1_500_000_000, 2.99, 2.9901)
	var prev float64
	for counter := uint64(1_600_000_000); counter < 3_000_000_000; counter += 10_000_000 {
		v := c.Read(counter)
		if v < prev {
			t.Fatalf("clock went backwards: %v after %v", v, prev)
		}
		prev = v
	}
}

func TestUninitializedReadsZero(t *testing.T) {
	c, err := New(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Read(12345); got != 0 {
		t.Errorf("uninitialized read = %v", got)
	}
}

func TestFilterPrefersMinimumDelay(t *testing.T) {
	cfg := DefaultConfig(2e-9, 16)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Initialize.
	c.ProcessExchange(0, 1_000_000, 10, 10.001)
	// A high-delay (congested) exchange whose offset is wild: it becomes
	// the latest sample but NOT the minimum-delay one once a clean
	// sample follows, so its offset must not drive the loop.
	base := uint64(10_000_000_000)
	cleanUp := c.ProcessExchange(base, base+500_000 /* 1 ms RTT */, 30.0, 30.0001)
	_ = cleanUp
	congested := c.ProcessExchange(base+8_000_000_000, base+8_050_000_000 /* 100 ms RTT */, 50.0, 50.0001)
	if congested.Applied && !math.IsNaN(congested.FilterOffset) &&
		congested.FilterOffset == congested.MeasuredOffset && congested.MeasuredDelay > 0.05 {
		t.Error("congested sample drove the loop despite clean minimum in filter")
	}
}

func BenchmarkProcessExchange(b *testing.B) {
	tr, err := sim.Generate(sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 1))
	if err != nil {
		b.Fatal(err)
	}
	ex := tr.Completed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := New(DefaultConfig(1.0/548655270, 16))
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range ex {
			c.ProcessExchange(e.Ta, e.Tf, e.Tb, e.Te)
		}
	}
}
