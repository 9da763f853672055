package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/timebase"
)

// synthExchanges builds a syntactically valid exchange sequence from
// arbitrary fuzz material: monotone counter stamps, loosely plausible
// server stamps. The values can be wildly wrong (that is the point);
// only the structural preconditions of Process are enforced.
func synthExchanges(seed uint64, n int) []Input {
	src := rng.New(seed)
	const p = 2e-9 // 500 MHz
	ins := make([]Input, 0, n)
	counter := uint64(1000)
	serverT := 1000.0
	for i := 0; i < n; i++ {
		gap := 1 + src.Float64()*30 // 1-31 s between exchanges
		counter += uint64(gap / p)
		serverT += gap

		rtt := 100e-6 + src.Exponential(300e-6)
		if src.Bool(0.02) {
			rtt += src.Pareto(5e-3, 1.5) // gross congestion
		}
		ta := counter
		tf := ta + uint64(rtt/p)

		tb := serverT + rtt/3 + src.Normal(0, 50e-6)
		te := tb + 20e-6 + src.Exponential(10e-6)
		if src.Bool(0.01) {
			// Corrupt server stamps outright (faulty server).
			off := src.Normal(0, 0.5)
			tb += off
			te += off
		}
		ins = append(ins, Input{Ta: ta, Tf: tf, Tb: tb, Te: te})
		counter = tf
	}
	return ins
}

// TestPropertyEngineTotal runs the engine over adversarial exchange
// sequences and asserts its unconditional invariants:
//
//  1. Process never errors on structurally valid input and never panics;
//  2. the rate estimate stays positive and finite;
//  3. r̂ is never above the smallest RTT seen since the last upward
//     shift re-base (within float tolerance);
//  4. offset estimates never jump by more than the aged sanity bound;
//  5. the clock definition (p, c) always evaluates finitely.
func TestPropertyEngineTotal(t *testing.T) {
	f := func(seed uint64) bool {
		ins := synthExchanges(seed, 400)
		cfg := DefaultConfig(2e-9, 16)
		s, err := NewSync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prevTheta := math.NaN()
		lastChangeTf := uint64(0) // counter at the last accepted θ̂ update
		maxQualSince := 0.0
		for _, in := range ins {
			res, err := s.Process(in)
			if err != nil {
				t.Logf("unexpected Process error: %v", err)
				return false
			}
			if !(res.PHat > 0) || math.IsInf(res.PHat, 0) {
				t.Logf("bad rate estimate %v", res.PHat)
				return false
			}
			if res.RTTHat > res.RTT+1e-12 && !res.UpwardShiftDetected {
				t.Logf("r̂ %v above observed RTT %v", res.RTTHat, res.RTT)
				return false
			}
			if res.PQuality > maxQualSince {
				maxQualSince = res.PQuality
			}
			if !math.IsNaN(prevTheta) && !res.Warmup && res.ThetaHat != prevTheta {
				// The sanity contract: an accepted update differs from
				// the previous trusted estimate by at most E_s plus the
				// rate uncertainty integrated since that estimate.
				age := float64(in.Tf-lastChangeTf) * res.PHat
				bound := 1.01 * (OffsetSanity + (maxQualSince+hardwareRateBound)*age)
				if d := math.Abs(res.ThetaHat - prevTheta); d > bound {
					t.Logf("offset jumped %v > bound %v (age %v)", d, bound, age)
					return false
				}
			}
			if !math.IsNaN(prevTheta) && res.ThetaHat != prevTheta || math.IsNaN(prevTheta) {
				lastChangeTf = in.Tf
				maxQualSince = res.PQuality
			}
			if math.IsNaN(res.ClockP) || math.IsNaN(res.ClockC) {
				t.Log("clock definition NaN")
				return false
			}
			prevTheta = res.ThetaHat
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDifferenceClockLinear: the difference clock is exactly
// linear in the counter — offset corrections never leak into it.
func TestPropertyDifferenceClockLinear(t *testing.T) {
	ins := synthExchanges(7, 300)
	s, err := NewSync(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		if _, err := s.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Readout()
	f := func(a, b, c uint64) bool {
		// Additivity: span(a,b) + span(b,c) == span(a,c) exactly up to
		// float rounding.
		ab := r.DifferenceSpan(a, b)
		bc := r.DifferenceSpan(b, c)
		ac := r.DifferenceSpan(a, c)
		return math.Abs(ab+bc-ac) <= 1e-9*(math.Abs(ab)+math.Abs(bc)+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyAbsoluteMinusDifference: Ca differs from the raw clock by
// exactly the (extrapolated) offset estimate — equation (7).
func TestPropertyAbsoluteMinusDifference(t *testing.T) {
	ins := synthExchanges(9, 200)
	s, err := NewSync(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		if _, err := s.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Readout()
	f := func(counter uint64) bool {
		want := float64(counter)*r.P + r.K - r.ThetaAt(counter)
		got := r.AbsoluteTime(counter)
		return math.Abs(got-want) <= 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExtremeServerCorruption: hours of completely garbage server
// stamps must not destroy the clock rate.
func TestExtremeServerCorruption(t *testing.T) {
	src := rng.New(11)
	const p = 2e-9
	cfg := DefaultConfig(p, 16)
	s, err := NewSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counter := uint64(1000)
	serverT := 0.0
	var lastGoodP float64
	for i := 0; i < 3000; i++ {
		counter += uint64(16 / p)
		serverT += 16
		rtt := 300e-6 + src.Exponential(50e-6)
		ta := counter
		tf := ta + uint64(rtt/p)
		tb := serverT + rtt/3
		te := tb + 20e-6
		if i > 1000 && i < 2000 {
			// Server goes insane for ~4.5 hours.
			tb += src.Normal(0, 10)
			te = tb + 20e-6
		}
		res, err := s.Process(Input{Ta: ta, Tf: tf, Tb: tb, Te: te})
		if err != nil {
			t.Fatal(err)
		}
		if i == 999 {
			lastGoodP = res.PHat
		}
		counter = tf
	}
	final := s.Readout().P
	if rel := math.Abs(final/lastGoodP - 1); rel > timebase.FromPPM(1) {
		t.Errorf("rate moved %v PPM through server insanity", timebase.PPM(rel))
	}
}

// TestDuplicateTimestampsRejected: identical or regressing counter
// values must be refused, never corrupting state.
func TestDuplicateTimestampsRejected(t *testing.T) {
	s, err := NewSync(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(Input{Ta: 100, Tf: 200, Tb: 1, Te: 1.0001}); err != nil {
		t.Fatal(err)
	}
	before := s.Readout().P
	if _, err := s.Process(Input{Ta: 150, Tf: 200, Tb: 2, Te: 2.0001}); err == nil {
		t.Error("duplicate Tf accepted")
	}
	after := s.Readout().P
	if before != after {
		t.Error("rejected input mutated clock state")
	}
}

// TestWindowSlideKeepsEstimates: sliding the top window must not move
// the clock discontinuously.
func TestWindowSlideKeepsEstimates(t *testing.T) {
	cfg := DefaultConfig(2e-9, 16)
	cfg.TopWindow = 64 * 16 // tiny top window: slides often
	cfg.WarmupSamples = 8
	cfg.OffsetWindow = 8 * 16
	cfg.ShiftWindow = 16 * 16
	cfg.LocalRateWindow = 16 * 16
	s, err := NewSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(13)
	const p = 2e-9
	counter := uint64(1000)
	serverT := 0.0
	var prev float64
	havePrev := false
	for i := 0; i < 1000; i++ {
		counter += uint64(16 / p)
		serverT += 16
		rtt := 300e-6 + src.Exponential(50e-6)
		ta := counter
		tf := ta + uint64(rtt/p)
		res, err := s.Process(Input{Ta: ta, Tf: tf, Tb: serverT + rtt/3, Te: serverT + rtt/3 + 20e-6})
		if err != nil {
			t.Fatal(err)
		}
		read := float64(tf)*res.ClockP + res.ClockC
		if havePrev {
			// Clock reads advance by ~16 s between packets regardless of
			// window slides.
			if d := read - prev; d < 10 || d > 40 {
				t.Fatalf("clock read jumped by %v s at packet %d", d, i)
			}
		}
		prev, havePrev = read, true
		counter = tf
	}
}
