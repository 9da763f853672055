package core

import (
	"testing"

	"repro/internal/rng"
)

// feedSteady feeds n clean exchanges with the given minimum RTT and
// returns the engine.
func feedSteady(t *testing.T, s *Sync, src *rng.Source, n int, minRTT float64,
	counter *uint64, serverT *float64) {
	t.Helper()
	const p = 2e-9
	for i := 0; i < n; i++ {
		*counter += uint64(16 / p)
		*serverT += 16
		rtt := minRTT + src.Exponential(30e-6)
		ta := *counter
		tf := ta + uint64(rtt/p)
		if _, err := s.Process(Input{Ta: ta, Tf: tf, Tb: *serverT + rtt/3,
			Te: *serverT + rtt/3 + 20e-6}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestObserveIdentityNoChange(t *testing.T) {
	s, err := NewSync(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	counter, serverT := uint64(1000), 0.0
	feedSteady(t, s, src, 10, 400e-6, &counter, &serverT)

	id := Identity{RefID: 0x47505300, Stratum: 1} // "GPS"
	if s.ObserveIdentity(id) {
		t.Error("first identity observation reported as change")
	}
	if s.ObserveIdentity(id) {
		t.Error("unchanged identity reported as change")
	}
	if r := s.Readout(); !r.IdentKnown || r.Ident != id {
		t.Errorf("published identity = %+v/%v", r.Ident, r.IdentKnown)
	}
}

func TestObserveIdentityInvalidIgnored(t *testing.T) {
	s, err := NewSync(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	if s.ObserveIdentity(Identity{}) {
		t.Error("zero identity reported as change")
	}
	if s.Readout().IdentKnown {
		t.Error("zero identity stored")
	}
}

func TestObserveIdentityRebasesMinimum(t *testing.T) {
	s, err := NewSync(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(2)
	counter, serverT := uint64(1000), 0.0

	// Old server: 400 µs minimum.
	feedSteady(t, s, src, 200, 400e-6, &counter, &serverT)
	s.ObserveIdentity(Identity{RefID: 1, Stratum: 1})
	oldRHat := s.Readout().RTTHat
	if oldRHat > 450e-6 {
		t.Fatalf("old r̂ = %v", oldRHat)
	}

	// New server appears with a HIGHER minimum (900 µs): without the
	// identity signal this would take a full shift window to detect.
	feedSteady(t, s, src, 1, 900e-6, &counter, &serverT)
	if !s.ObserveIdentity(Identity{RefID: 2, Stratum: 1}) {
		t.Fatal("server change not detected")
	}
	if got := s.Readout().RTTHat; got < 850e-6 {
		t.Errorf("r̂ = %v after server change, want re-based to ~900µs", got)
	}

	// Estimation continues normally against the new server.
	feedSteady(t, s, src, 100, 900e-6, &counter, &serverT)
	if got := s.Readout().RTTHat; got < 850e-6 || got > 950e-6 {
		t.Errorf("r̂ = %v tracking new server", got)
	}
	// The rate estimate must have survived the change.
	p := s.Readout().P
	if rel := p/2e-9 - 1; rel > 1e-5 || rel < -1e-5 {
		t.Errorf("rate estimate %v disturbed by server change", p)
	}
}

func TestObserveIdentityStratumChange(t *testing.T) {
	s, err := NewSync(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	counter, serverT := uint64(1000), 0.0
	feedSteady(t, s, src, 50, 400e-6, &counter, &serverT)
	s.ObserveIdentity(Identity{RefID: 9, Stratum: 1})
	if !s.ObserveIdentity(Identity{RefID: 9, Stratum: 2}) {
		t.Error("stratum change not detected")
	}
}
