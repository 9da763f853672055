package core

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/timebase"
)

func TestAccessors(t *testing.T) {
	cfg := DefaultConfig(2e-9, 16)
	s, err := NewSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg != cfg {
		t.Errorf("engine config = %+v", s.cfg)
	}
	r := s.Readout()
	if r.Count != 0 {
		t.Errorf("Count before feed = %d", r.Count)
	}
	if r.HaveTheta {
		t.Error("Theta available before any packet")
	}
	if got := r.ThetaAt(12345); got != 0 {
		t.Errorf("ThetaAt before any packet = %v, want 0", got)
	}
	if !math.IsInf(r.RTTHat, 1) {
		t.Errorf("RTTHat before feed = %v, want +Inf", r.RTTHat)
	}

	if _, err := s.Process(Input{Ta: 1000, Tf: 201000, Tb: 5, Te: 5.0001}); err != nil {
		t.Fatal(err)
	}
	if r = s.Readout(); r.Count != 1 {
		t.Errorf("Count = %d", r.Count)
	}
	if !r.HaveTheta {
		t.Error("Theta unavailable after first packet")
	}
}

// TestThetaAtLinearPrediction: with the local rate valid, ThetaAt must
// extrapolate linearly per equation (23): the predicted offset moves by
// −γ_l per second of difference-clock time.
func TestThetaAtLinearPrediction(t *testing.T) {
	cfg := DefaultConfig(2e-9, 16)
	cfg.UseLocalRate = true
	// Shrink windows so the refinement activates quickly.
	cfg.LocalRateWindow = 40 * 16
	cfg.ShiftWindow = 20 * 16
	cfg.TopWindow = 2000 * 16
	cfg.WarmupSamples = 8
	s, err := NewSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(3)
	const p = 2e-9
	counter := uint64(1000)
	serverT := 0.0
	var lastTf uint64
	sawValid := false
	for i := 0; i < 400; i++ {
		counter += uint64(16 / p)
		serverT += 16
		rtt := 300e-6 + src.Exponential(30e-6)
		ta := counter
		tf := ta + uint64(rtt/p)
		res, err := s.Process(Input{Ta: ta, Tf: tf, Tb: serverT + rtt/3, Te: serverT + rtt/3 + 20e-6})
		if err != nil {
			t.Fatal(err)
		}
		if res.PLocalValid {
			sawValid = true
		}
		lastTf = tf
	}
	if !sawValid {
		t.Fatal("local rate never became valid")
	}

	r := s.Readout()
	base := r.ThetaAt(lastTf)
	later := r.ThetaAt(lastTf + uint64(100/p)) // 100 s later
	// The prediction slope must match −γ_l = −(p_l/p̂ − 1).
	slope := (later - base) / 100
	// γ_l is tiny here (clean feed): slope must be bounded by ~1 PPM and
	// exactly linear (midpoint check).
	mid := r.ThetaAt(lastTf + uint64(50/p))
	if d := math.Abs(mid - (base+later)/2); d > 1e-12 {
		t.Errorf("prediction not linear: midpoint off by %v", d)
	}
	if math.Abs(slope) > timebase.FromPPM(1) {
		t.Errorf("prediction slope %v implausible", slope)
	}
}
