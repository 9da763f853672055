package tscclock

import (
	"math"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/timebase"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("missing NominalPeriod accepted")
	}
	if _, err := New(Options{NominalPeriod: 1e-9}); err != nil {
		t.Errorf("minimal options rejected: %v", err)
	}
}

func TestEndToEndOnSimulatedTrace(t *testing.T) {
	tr, err := sim.Generate(sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 77))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{NominalPeriod: 1.0 / 548655270, PollPeriod: 16})
	if err != nil {
		t.Fatal(err)
	}
	var last Status
	for _, e := range tr.Completed() {
		st, err := c.ProcessNTPExchange(e.Ta, e.Tf, e.Tb, e.Te)
		if err != nil {
			t.Fatal(err)
		}
		last = st
	}
	// Rate within 0.1 PPM of the oracle.
	if e := math.Abs(last.Period/tr.Osc.MeanPeriod() - 1); e > timebase.FromPPM(0.1) {
		t.Errorf("period error %v PPM", timebase.PPM(e))
	}
	// Absolute clock within ~0.15 ms of truth at end of day.
	tt := 23.0 * timebase.Hour
	if d := math.Abs(c.AbsoluteTime(tr.Osc.ReadTSC(tt)) - tt); d > 150e-6 {
		t.Errorf("absolute clock error %v", d)
	}
	// Difference clock accurate over 60 s.
	c1, c2 := tr.Osc.ReadTSC(tt), tr.Osc.ReadTSC(tt+60)
	if d := math.Abs(c.Between(c1, c2) - 60); d > 3e-6 {
		t.Errorf("difference clock error %v over 60 s", d)
	}
	// Accessors agree with the last status.
	if got := c.Period(); got != last.Period {
		t.Errorf("Period() = %v, status %v", got, last.Period)
	}
	if c.Exchanges() != len(tr.Completed()) {
		t.Errorf("Exchanges() = %d", c.Exchanges())
	}
}

func TestConcurrentReaders(t *testing.T) {
	tr, err := sim.Generate(sim.NewScenario(sim.MachineRoom, sim.ServerLoc(), 16, 2*timebase.Hour, 78))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{NominalPeriod: 1.0 / 548655270, PollPeriod: 16})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = c.AbsoluteTime(1 << 40)
					_ = c.Between(1<<40, 1<<40+1000)
				}
			}
		}()
	}
	for _, e := range tr.Completed() {
		if _, err := c.ProcessNTPExchange(e.Ta, e.Tf, e.Tb, e.Te); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

func TestStatusFlagsSurface(t *testing.T) {
	// A degenerate feed must surface engine errors, not panic.
	c, err := New(Options{NominalPeriod: 1e-9, PollPeriod: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProcessNTPExchange(10, 10, 1, 1); err == nil {
		t.Error("invalid exchange accepted")
	}
	st, err := c.ProcessNTPExchange(1000, 2000, 1, 1.000001)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Warmup {
		t.Error("first exchange not flagged as warmup")
	}
}
