package ensemble

import (
	"math"
	"testing"

	"repro/internal/core"
)

// asymEnsemble builds an n-server ensemble with the asymmetry
// correction switched as given.
func asymEnsemble(t *testing.T, n int, correct bool) *Ensemble {
	t.Helper()
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfgs[i] = core.DefaultConfig(synthP, 16)
	}
	e, err := New(Config{Engines: cfgs, AsymCorrection: correct})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// corrOf returns the per-server applied corrections.
func corrOf(e *Ensemble) []float64 {
	rows := e.Readout().Servers
	out := make([]float64, len(rows))
	for k := range rows {
		out[k] = rows[k].AsymCorrection
	}
	return out
}

// TestAsymCorrectionZeroOnSymmetric: servers with identical (symmetric)
// paths develop no meaningful correction — there is no differential
// asymmetry to redistribute, so the EWMA tracks hints that hover at the
// staggered-schedule noise floor.
func TestAsymCorrectionZeroOnSymmetric(t *testing.T) {
	e := asymEnsemble(t, 3, true)
	run(t, e, 200, func(_, _ int) float64 { return 0 })
	for k, c := range corrOf(e) {
		if math.Abs(c) > 1e-6 {
			t.Errorf("server %d: symmetric-path correction %v, want ≈ 0", k, c)
		}
	}
}

// TestAsymCorrectionSignMatchesAsymmetry: a server whose clock reads a
// constant bias late (what an extra forward-path delay looks like,
// paper §2.3) earns a positive correction, and the unbiased majority a
// compensating negative one — the selected-set midpoint splits the
// camps, so every correction points from the server's clock toward the
// consensus.
func TestAsymCorrectionSignMatchesAsymmetry(t *testing.T) {
	const bias = 60e-6 // well inside the selection bound: stays selected
	e := asymEnsemble(t, 3, true)
	last := run(t, e, 300, func(k, _ int) float64 {
		if k == 2 {
			return bias
		}
		return 0
	})
	corr := corrOf(e)
	if !(corr[2] > 0) {
		t.Errorf("late server correction %v, want > 0", corr[2])
	}
	if !(corr[0] < 0 && corr[1] < 0) {
		t.Errorf("unbiased servers corrections %v %v, want < 0 (pulled toward midpoint)", corr[0], corr[1])
	}
	// The correction must have converged to a meaningful fraction of the
	// hint level (the midpoint splits the bias in half across the camps).
	if corr[2] < bias/4 {
		t.Errorf("late server correction %v did not converge (bias %v)", corr[2], bias)
	}
	for k, st := range e.Readout().Servers {
		if !st.Selected {
			t.Errorf("server %d evicted: the bias was meant to stay within the selection bound", k)
		}
	}

	// The lock-free readout combine must agree bitwise with the
	// writer-side combine while corrections are applied.
	T := uint64((last + 1) / synthP)
	if w, r := e.Readout().AbsoluteTime(T), e.Readout().AbsoluteTime(T); w != r {
		t.Errorf("writer %v vs readout %v combined time with corrections applied", w, r)
	}
}

// TestAsymCorrectionBoundedByClamp: a bias whose hint exceeds the clamp
// saturates the correction at asymClampFrac of the correctness-interval
// half-width instead of following the hint.
func TestAsymCorrectionBoundedByClamp(t *testing.T) {
	e := asymEnsemble(t, 3, true)
	run(t, e, 300, func(k, _ int) float64 {
		if k == 2 {
			return 100e-6
		}
		return 0
	})
	rows := e.Readout().Servers
	for k, sr := range rows {
		clamp := asymClampFrac * agreementFactor * (sr.ErrScale - sr.Penalty)
		if math.Abs(sr.AsymCorrection) > clamp*(1+1e-12) {
			t.Errorf("server %d: |correction| %v exceeds clamp %v", k, sr.AsymCorrection, clamp)
		}
	}
	// The biased server's hint is above the clamp, so the clamp must
	// actually bind there — otherwise this test has no teeth.
	clamp2 := asymClampFrac * agreementFactor * (rows[2].ErrScale - rows[2].Penalty)
	if !(rows[2].AsymmetryHint > clamp2) || rows[2].AsymCorrection < clamp2*(1-1e-12) {
		t.Errorf("late server hint %v, correction %v vs clamp %v: clamp never engaged",
			rows[2].AsymmetryHint, rows[2].AsymCorrection, clamp2)
	}
}

// TestAsymCorrectionDisabledBitIdentical: with the switch off no row
// carries a correction and no voter subtracts one — the combined clock
// is the uncorrected combiner's, bit for bit (x − 0 is the identity) —
// while the same exchanges with the switch on produce a different
// clock, proving the comparison has teeth.
func TestAsymCorrectionDisabledBitIdentical(t *testing.T) {
	disabled, enabled := asymEnsemble(t, 3, false), asymEnsemble(t, 3, true)
	biasOf := func(k, _ int) float64 {
		if k == 2 {
			return 60e-6
		}
		return 0
	}
	run(t, disabled, 200, biasOf)
	last := run(t, enabled, 200, biasOf)
	r := disabled.Readout()
	for k := range r.Servers {
		if c := r.Servers[k].AsymCorrection; c != 0 {
			t.Errorf("server %d: correction %v with the switch off", k, c)
		}
	}
	for _, v := range r.voters {
		if v.corr != 0 {
			t.Errorf("voter subtracts %v with the switch off", v.corr)
		}
	}
	T := uint64((last + 1) / synthP)
	if r.AbsoluteTime(T) == enabled.Readout().AbsoluteTime(T) {
		t.Errorf("enabled combiner bit-identical to the disabled one on a biased feed: harness has no teeth")
	}
}

// TestAsymCorrectionZeroWhileUnselected: a falseticker's correction is
// zero — its hint measures its distance from a set it is not part of,
// and correcting by it would launder the lie into the vote.
func TestAsymCorrectionZeroWhileUnselected(t *testing.T) {
	e := asymEnsemble(t, 3, true)
	run(t, e, 200, func(k, _ int) float64 {
		if k == 2 {
			return 5e-3 // far outside the selection bound
		}
		return 0
	})
	states := e.Readout().Servers
	if !states[2].Falseticker {
		t.Fatalf("biased server not flagged: %+v", states[2])
	}
	if states[2].AsymCorrection != 0 {
		t.Errorf("falseticker correction %v, want exactly 0", states[2].AsymCorrection)
	}
	if math.Abs(states[2].AsymmetryHint) < 1e-3 {
		t.Errorf("falseticker hint %v, want ≈ the 5ms lie (gate must ignore it)", states[2].AsymmetryHint)
	}
}

// TestAsymCorrectionZeroInPenalty: an identity change (server
// migration) adds an event penalty that closes the correction gate —
// the server's recent history is not currently evidence of path
// asymmetry — and the correction returns as the penalty decays.
func TestAsymCorrectionZeroInPenalty(t *testing.T) {
	e := asymEnsemble(t, 3, true)
	bias := func(k, _ int) float64 {
		if k == 2 {
			return 60e-6
		}
		return 0
	}
	last := run(t, e, 300, bias)
	if c := corrOf(e)[2]; c <= 0 {
		t.Fatalf("no correction built before the penalty: %v", c)
	}

	// A reference-ID change on server 2 adds the identity penalty.
	feedFrom(t, e, 2, last+8, 60e-6, core.Identity{RefID: 1, Stratum: 1})
	if _, changed := feedFrom(t, e, 2, last+16, 60e-6, core.Identity{RefID: 2, Stratum: 1}); !changed {
		t.Fatal("identity change not detected")
	}
	st := e.Readout().Servers[2]
	if st.Penalty == 0 {
		t.Fatal("identity change added no penalty")
	}
	if st.AsymCorrection != 0 {
		t.Errorf("correction %v during penalty, want exactly 0", st.AsymCorrection)
	}

	// The penalty decays; the gate reopens and the correction returns.
	now := last + 32
	for i := 0; i < 200; i++ {
		for k := 0; k < 3; k++ {
			feed(t, e, k, now, bias(k, 0))
			now += 16.0 / 3
		}
	}
	if c := corrOf(e)[2]; c <= 0 {
		t.Errorf("correction %v did not return after the penalty decayed", c)
	}
}

// TestAsymConfigValidation: the asymmetry tracker's gain lies in (0,1],
// so the tracker is a contraction, and its clamp is positive.
func TestAsymConfigValidation(t *testing.T) {
	if !(asymAlpha > 0 && asymAlpha <= 1) || !(asymClampFrac > 0) {
		t.Errorf("asymAlpha %v outside (0,1] or asymClampFrac %v not positive", asymAlpha, asymClampFrac)
	}
}
