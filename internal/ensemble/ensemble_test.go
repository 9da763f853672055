package ensemble

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// weightedMedian evaluates the combiner over bare values and weights the
// way every production read does: through a published-shape Readout
// whose servers hold constant clocks and whose voter list is, as publish
// builds it, the positive-weight servers in order — so the no-voter
// fallback and the median walk under test are the real ones.
func weightedMedian(vals, ws []float64) float64 {
	r := &Readout{Servers: make([]ServerReadout, len(vals))}
	for k := range vals {
		r.Servers[k].Clock = &core.Readout{K: vals[k]}
		if ws[k] > 0 {
			r.voters = append(r.voters, voter{clock: r.Servers[k].Clock, raw: ws[k]})
		}
	}
	return r.AbsoluteTime(0)
}

func TestWeightedMedian(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		ws   []float64
		want float64
	}{
		{"single", []float64{3}, []float64{1}, 3},
		{"odd-equal", []float64{1, 100, 2}, []float64{1, 1, 1}, 2},
		{"outlier-outvoted", []float64{10, 11, 9999}, []float64{1, 1, 1}, 11},
		{"low-outlier-outvoted", []float64{-9999, 10, 11}, []float64{1, 1, 1}, 10},
		{"weight-dominates", []float64{1, 2, 3}, []float64{10, 1, 1}, 1},
		{"zero-weights-skipped", []float64{5, 7, 9}, []float64{0, 1, 0}, 7},
		{"all-zero-falls-back", []float64{5, 7}, []float64{0, 0}, 5},
		{"even-interpolates", []float64{1, 2, 3, 4}, []float64{1, 1, 1, 1}, 2.5},
		{"two-servers-split", []float64{5, 7}, []float64{1, 1}, 6},
		{"boundary-hit-interpolates", []float64{1, 2, 4}, []float64{1, 1, 2}, 3},
		{"empty", nil, nil, 0},
	}
	for _, c := range cases {
		if got := weightedMedian(c.vals, c.ws); got != c.want {
			t.Errorf("%s: weightedMedian = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	bad := core.DefaultConfig(2e-9, 16)
	bad.Delta = -1
	if _, err := New(Config{Engines: []core.Config{bad}}); err == nil {
		t.Error("invalid engine config accepted")
	}
	// The trust constants: decay and gain in (0,1], a positive
	// interval scale.
	if !(penaltyDecay > 0 && penaltyDecay <= 1) || !(errAlpha > 0 && errAlpha <= 1) || !(agreementFactor > 0) {
		t.Errorf("trust constants out of range: penaltyDecay %v, errAlpha %v, agreementFactor %v",
			penaltyDecay, errAlpha, agreementFactor)
	}
}

func TestProcessServerRange(t *testing.T) {
	e := mustEnsemble(t, 2)
	if _, err := e.Process(2, core.Input{Ta: 1, Tf: 2}); err == nil {
		t.Error("out-of-range server accepted")
	}
	if _, err := e.Process(-1, core.Input{Ta: 1, Tf: 2}); err == nil {
		t.Error("negative server accepted")
	}
}

// TestNonFiniteStampPublishesNothing: an exchange whose server stamp is
// NaN or infinite is refused by that server's engine before the
// ensemble folds anything in — no publication, the published readout
// still the one before it, every server's row (the refused server's
// own included) where it was — and the next clean exchange is taken as
// if the bad one had been lost.
func TestNonFiniteStampPublishesNothing(t *testing.T) {
	e := mustEnsemble(t, 3)
	now := run(t, e, 40, func(int, int) float64 { return 0 })
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, batch := range []bool{false, true} {
			now += 16
			before, pubs := e.Readout(), e.Publications()
			rows := append([]ServerReadout(nil), before.Servers...)
			in := synthInput(now, 0)
			in.Te = v
			var err error
			if batch {
				err = e.ProcessBatch([]BatchExchange{{Server: 1, In: in}})
			} else {
				_, err = e.Process(1, in)
			}
			if err == nil {
				t.Fatalf("server stamp %g accepted (batch=%v)", v, batch)
			}
			if e.Publications() != pubs || e.Readout() != before {
				t.Fatalf("server stamp %g (batch=%v): the refused exchange published", v, batch)
			}
			for k, row := range e.Readout().Servers {
				if row != rows[k] {
					t.Fatalf("server stamp %g (batch=%v): row %d moved: %+v, was %+v", v, batch, k, row, rows[k])
				}
			}
			feed(t, e, 1, now+1, 0)
			if at := e.Readout().AbsoluteTime(uint64((now + 2) / synthP)); math.IsNaN(at) || math.IsInf(at, 0) {
				t.Fatalf("combined clock reads %g after a refused stamp of %g", at, v)
			}
		}
	}
}

// --- synthetic multi-server harness ---

const synthP = 2e-9 // counter period: 500 MHz

func mustEnsemble(t *testing.T, n int) *Ensemble {
	t.Helper()
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfgs[i] = core.DefaultConfig(synthP, 16)
	}
	e, err := New(Config{Engines: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// feed sends one clean exchange with server k at true time t; off is
// the server's clock error (a faulty server's timestamps are shifted).
func feed(t *testing.T, e *Ensemble, k int, now, off float64) core.Result {
	t.Helper()
	res, err := e.Process(k, synthInput(now, off))
	if err != nil {
		t.Fatalf("server %d at %v: %v", k, now, err)
	}
	return res
}

// feedFrom is feed with the server identity the reply carried; it also
// reports whether the exchange was seen as an identity change.
func feedFrom(t *testing.T, e *Ensemble, k int, now, off float64, id core.Identity) (core.Result, bool) {
	t.Helper()
	res, changed, err := e.ProcessFrom(k, synthInput(now, off), id)
	if err != nil {
		t.Fatalf("server %d at %v: %v", k, now, err)
	}
	return res, changed
}

func synthInput(now, off float64) core.Input {
	const rtt = 400e-6
	return core.Input{
		Ta: uint64(now / synthP),
		Tf: uint64((now + rtt) / synthP),
		Tb: now + rtt/2 + off,
		Te: now + rtt/2 + 20e-6 + off,
	}
}

// run feeds n rounds of staggered exchanges to every server; faultOff
// gives each server's clock error as a function of the round.
func run(t *testing.T, e *Ensemble, rounds int, faultOff func(server, round int) float64) float64 {
	t.Helper()
	now := 0.0
	for i := 0; i < rounds; i++ {
		for k := 0; k < e.Size(); k++ {
			now = float64(i)*16 + float64(k)*16/float64(e.Size()) + 1
			feed(t, e, k, now, faultOff(k, i))
		}
	}
	return now
}

// TestFaultyServerOutvoted is the package's reason to exist: one of
// three servers serves timestamps 5 ms off from the start. Each engine
// is internally consistent — the faulty engine syncs happily to its
// faulty server — but the weighted median follows the two that agree.
func TestFaultyServerOutvoted(t *testing.T) {
	const fault = 5e-3
	e := mustEnsemble(t, 3)
	last := run(t, e, 100, func(k, _ int) float64 {
		if k == 2 {
			return fault
		}
		return 0
	})

	T := uint64((last + 1) / synthP)
	truth := last + 1
	combined := e.Readout().AbsoluteTime(T) - truth
	faulty := e.engines[2].Readout().AbsoluteTime(T) - truth
	if math.Abs(faulty) < fault/2 {
		t.Fatalf("faulty engine error %v; expected ≈ %v — harness lost its teeth", faulty, fault)
	}
	if math.Abs(combined) > 1e-3*fault+100e-6 {
		t.Errorf("combined clock error %v: the faulty server was not outvoted", combined)
	}
	if ag := e.Readout().Agreement(T); ag != 2 {
		t.Errorf("Agreement = %d, want 2 (faulty server outside its interval)", ag)
	}
}

// TestMidRunFaultPenalized: a fault that appears mid-run triggers the
// faulty engine's own sanity checks, which the trust scoring converts
// into a lower combining weight.
func TestMidRunFaultPenalized(t *testing.T) {
	e := mustEnsemble(t, 3)
	run(t, e, 120, func(k, i int) float64 {
		if k == 2 && i >= 60 {
			return 5e-3
		}
		return 0
	})
	s := e.Readout().Servers
	if !(s[2].Weight < s[0].Weight && s[2].Weight < s[1].Weight) {
		t.Errorf("faulty server weight %v not below good servers %v, %v", s[2].Weight, s[0].Weight, s[1].Weight)
	}
	sum := s[0].Weight + s[1].Weight + s[2].Weight
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v", sum)
	}
}

// TestWarmupWeights: before any engine graduates warmup, servers with
// data share weight equally so the combined clock exists immediately.
func TestWarmupWeights(t *testing.T) {
	e := mustEnsemble(t, 3)
	if s := e.Readout().Servers; s[0].Weight != 0 || s[1].Weight != 0 || s[2].Weight != 0 {
		t.Errorf("weights before any exchange = %v %v %v, want zeros", s[0].Weight, s[1].Weight, s[2].Weight)
	}
	feed(t, e, 0, 1, 0)
	feed(t, e, 1, 6, 0)
	if s := e.Readout().Servers; s[0].Weight != 0.5 || s[1].Weight != 0.5 || s[2].Weight != 0 {
		t.Errorf("warmup weights = %v %v %v, want 0.5 0.5 0", s[0].Weight, s[1].Weight, s[2].Weight)
	}
	if e.Readout().AbsoluteTime(uint64(7/synthP)) == 0 {
		t.Error("combined clock unreadable during warmup")
	}
}

// TestRateCombination: the combined rate is the weighted median of the
// per-server rates, which all converge to the true counter period here.
func TestRateCombination(t *testing.T) {
	e := mustEnsemble(t, 3)
	run(t, e, 80, func(_, _ int) float64 { return 0 })
	if got := e.Readout().RateHat(); math.Abs(got/synthP-1) > 1e-6 {
		t.Errorf("combined rate %v, want ≈ %v", got, synthP)
	}
	span := e.Readout().DifferenceSpan(0, uint64(1/synthP))
	if math.Abs(span-1) > 1e-6 {
		t.Errorf("DifferenceSpan over 1 s = %v", span)
	}
	if rev := e.Readout().DifferenceSpan(uint64(1/synthP), 0); math.Abs(rev+1) > 1e-6 {
		t.Errorf("reverse DifferenceSpan = %v, want ≈ −1", rev)
	}
}

// TestObserveIdentityPenalty: a server identity change re-bases that
// engine and dents its trust.
func TestObserveIdentityPenalty(t *testing.T) {
	e := mustEnsemble(t, 2)
	last := run(t, e, 50, func(_, _ int) float64 { return 0 })
	if _, _, err := e.ProcessFrom(5, synthInput(last+1, 0), core.Identity{RefID: 1, Stratum: 1}); err == nil {
		t.Error("out-of-range server accepted")
	}
	feedFrom(t, e, 0, last+8, 0, core.Identity{RefID: 1, Stratum: 1})
	before := e.Readout().Servers[0].Weight
	if _, changed := feedFrom(t, e, 0, last+24, 0, core.Identity{RefID: 2, Stratum: 1}); !changed {
		t.Fatal("identity change not detected")
	}
	if after := e.Readout().Servers[0].Weight; !(after < before) {
		t.Errorf("weight after identity change %v, want < %v", after, before)
	}
}

func TestExchangesCount(t *testing.T) {
	e := mustEnsemble(t, 2)
	feed(t, e, 0, 1, 0)
	feed(t, e, 1, 2, 0)
	feed(t, e, 0, 17, 0)
	if got := e.Readout().Exchanges; got != 3 {
		t.Errorf("Exchanges = %d, want 3", got)
	}
}

// --- weighted median properties ---

// TestWeightedMedianProperties checks the combiner's contract over
// random inputs: two equally weighted servers average (symmetry), the
// result is invariant under uniform weight scaling, and the breakdown
// point 1/2 is preserved — a coalition holding strictly less than half
// the total weight cannot push the median outside the range of the
// remaining values.
func TestWeightedMedianProperties(t *testing.T) {
	src := rng.New(42)

	for trial := 0; trial < 200; trial++ {
		a, b := src.Float64()*1e3-500, src.Float64()*1e3-500
		w := src.Float64() + 0.1
		got := weightedMedian([]float64{a, b}, []float64{w, w})
		if want := (a + b) / 2; math.Abs(got-want) > 1e-9 {
			t.Fatalf("2-server symmetry: median(%v,%v) = %v, want %v", a, b, got, want)
		}
	}

	for trial := 0; trial < 200; trial++ {
		n := 2 + int(src.Uint64()%7)
		vals := make([]float64, n)
		ws := make([]float64, n)
		for i := range vals {
			vals[i] = src.Float64()*2e3 - 1e3
			ws[i] = src.Float64() + 0.05
		}
		base := weightedMedian(vals, ws)
		// Powers of two keep the scaled weights exactly representable,
		// so the exact-boundary branch fires identically.
		for _, scale := range []float64{0.25, 2, 1024} {
			scaled := make([]float64, n)
			for i := range ws {
				scaled[i] = ws[i] * scale
			}
			if got := weightedMedian(vals, scaled); got != base {
				t.Fatalf("scale invariance: ×%v changed median %v → %v (vals %v ws %v)",
					scale, base, got, vals, ws)
			}
		}
	}

	for trial := 0; trial < 200; trial++ {
		nGood := 2 + int(src.Uint64()%5)
		nBad := 1 + int(src.Uint64()%4)
		vals := make([]float64, 0, nGood+nBad)
		ws := make([]float64, 0, nGood+nBad)
		lo, hi := math.Inf(1), math.Inf(-1)
		goodW := 0.0
		for i := 0; i < nGood; i++ {
			v := src.Float64()*100 - 50
			w := src.Float64() + 0.1
			vals, ws = append(vals, v), append(ws, w)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			goodW += w
		}
		// The adversarial coalition agrees on an extreme value and holds
		// strictly less than half the total weight.
		badEach := goodW * 0.99 / float64(nBad)
		badVal := 1e9
		if src.Bool(0.5) {
			badVal = -1e9
		}
		for i := 0; i < nBad; i++ {
			vals, ws = append(vals, badVal), append(ws, badEach)
		}
		got := weightedMedian(vals, ws)
		if got < lo || got > hi {
			t.Fatalf("breakdown: minority coalition at %v dragged median to %v outside [%v,%v]",
				badVal, got, lo, hi)
		}
	}
}

// --- selection ---

// TestColludingMinorityRejected is the selection stage's reason to
// exist: two of five servers agree with each other on a wrong clock.
// The weighted median alone could follow them if their paths earned
// them enough weight; interval intersection excludes them on count —
// the majority's intervals agree, theirs don't reach it.
func TestColludingMinorityRejected(t *testing.T) {
	const fault = 5e-3
	e := mustEnsemble(t, 5)
	bad := func(k int) bool { return k >= 3 }
	last := run(t, e, 100, func(k, _ int) float64 {
		if bad(k) {
			return fault
		}
		return 0
	})

	T := uint64((last + 1) / synthP)
	truth := last + 1
	if err := e.Readout().AbsoluteTime(T) - truth; math.Abs(err) > 100e-6 {
		t.Errorf("combined clock error %v despite colluding pair at %v", err, fault)
	}
	ro := e.Readout()
	if ro.Falsetickers != 2 {
		t.Errorf("Falsetickers = %d, want 2", ro.Falsetickers)
	}
	for k := 0; k < 5; k++ {
		sr := &ro.Servers[k]
		if sr.Selected == bad(k) || sr.Falseticker != bad(k) {
			t.Errorf("server %d: selected=%v falseticker=%v, want selected=%v", k, sr.Selected, sr.Falseticker, !bad(k))
		}
		if bad(k) && sr.Weight != 0 {
			t.Errorf("falseticker %d holds weight %v", k, sr.Weight)
		}
		// The asymmetry hint localizes the disagreement: colluders sit
		// ~fault from the selected-set midpoint, truechimers near it.
		if bad(k) && math.Abs(sr.AsymmetryHint-fault) > fault/2 {
			t.Errorf("AsymmetryHint[%d] = %v, want ≈ %v", k, sr.AsymmetryHint, fault)
		}
		if !bad(k) && math.Abs(sr.AsymmetryHint) > fault/10 {
			t.Errorf("AsymmetryHint[%d] = %v, want ≈ 0", k, sr.AsymmetryHint)
		}
	}
}

// TestSelectionDisabledFollowsWeight: with DisableSelection the
// combiner reverts to the pure weighted median, so a colluding pair
// holding the weight majority drags the clock — the vulnerability the
// selection stage closes. The pair's weight dominance is forced through
// per-server Delta (the errScale floor), standing in for the clean
// low-jitter paths that earn real colluders their trust.
func TestSelectionDisabledFollowsWeight(t *testing.T) {
	const fault = 5e-3
	build := func(disable bool) *Ensemble {
		t.Helper()
		cfgs := make([]core.Config, 5)
		for i := range cfgs {
			cfgs[i] = core.DefaultConfig(synthP, 16)
			if i >= 3 {
				cfgs[i].Delta = 5e-6 // colluders: tight error scale, big weight
			} else {
				cfgs[i].Delta = 100e-6 // honest majority: noisy paths
			}
		}
		e, err := New(Config{Engines: cfgs, DisableSelection: disable})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	faultOf := func(k, _ int) float64 {
		if k >= 3 {
			return fault
		}
		return 0
	}

	median := build(true)
	last := run(t, median, 100, faultOf)
	truth := last + 1
	T := uint64(truth / synthP)
	if err := median.Readout().AbsoluteTime(T) - truth; math.Abs(err) < fault/2 {
		t.Errorf("median-only error %v; expected the high-weight colluders to drag it ≈ %v", err, fault)
	}
	// Nobody is classified, so every ready server keeps its vote.
	ro := median.Readout()
	for k, sr := range ro.Servers {
		if sr.Falseticker || sr.Weight == 0 {
			t.Errorf("server %d with selection disabled: falseticker=%v weight=%v", k, sr.Falseticker, sr.Weight)
		}
	}
	if ro.Falsetickers != 0 {
		t.Errorf("Falsetickers = %d with selection disabled, want 0", ro.Falsetickers)
	}

	selecting := build(false)
	run(t, selecting, 100, faultOf)
	if err := selecting.Readout().AbsoluteTime(T) - truth; math.Abs(err) > 100e-6 {
		t.Errorf("selection-enabled error %v; the colluders' weight should not matter", err)
	}
}

// TestFalsetickerReadmissionHysteresis: a server that went wrong and
// healed re-enters the selected set only after readmitAfter consecutive
// intersecting sweeps — it must be observed on probation (intersecting
// but still excluded) before re-admission.
func TestFalsetickerReadmissionHysteresis(t *testing.T) {
	e := mustEnsemble(t, 3)
	now, probation, flagged := 0.0, 0, false
	for i := 0; i < 300; i++ {
		off := 0.0
		if i >= 60 && i < 90 {
			off = 1e-3 // server 2 goes wrong for 30 rounds, then heals
		}
		for k := 0; k < 3; k++ {
			now = float64(i)*16 + float64(k)*16/3 + 1
			o := 0.0
			if k == 2 {
				o = off
			}
			feed(t, e, k, now, o)
		}
		st := e.Readout().Servers[2]
		if i >= 60 && !st.Selected {
			flagged = true
		}
		if flagged && !st.Selected && st.IntersectStreak > 0 {
			probation++
		}
	}
	if !flagged {
		t.Fatal("faulty server was never deselected — harness lost its teeth")
	}
	st := e.Readout().Servers[2]
	if !st.Selected {
		t.Errorf("healed server not re-admitted by round 300: %+v", st)
	}
	// Three sweeps happen per round, so a streak of readmitAfter
	// intersections spans ≥ readmitAfter/3 rounds of visible probation
	// (intersecting again, still excluded).
	if probation < readmitAfter/3 {
		t.Errorf("observed only %d probation states, want ≥ %d (hysteresis bypassed)", probation, readmitAfter/3)
	}
}

// feedCongested is feed with the round trip inflated by extra queueing
// delay, split symmetrically around the server stamps so the server's
// apparent offset is unchanged: the server's point errors — and so its
// noise scale and correctness-interval width — balloon, but its clock
// does not move.
func feedCongested(t *testing.T, e *Ensemble, k int, now, off, extra float64) core.Result {
	t.Helper()
	rtt := 400e-6 + extra
	in := core.Input{
		Ta: uint64(now / synthP),
		Tf: uint64((now + rtt) / synthP),
		Tb: now + rtt/2 + off,
		Te: now + rtt/2 + 20e-6 + off,
	}
	res, err := e.Process(k, in)
	if err != nil {
		t.Fatalf("server %d at %v: %v", k, now, err)
	}
	return res
}

// TestBalloonedColluderStaysOut: a flagged falseticker cannot ride a
// congestion episode back into the vote. When its path noise balloons,
// its correctness interval widens far past the lie and *overlaps* the
// honest region — but re-admission requires its clock midpoint inside
// the survivors' cluster, and the midpoint still carries the lie. The
// flip side: an honest selected server whose interval balloons the same
// way keeps its seat, because eviction is interval-based and its wide
// claim still covers the truth.
func TestBalloonedColluderStaysOut(t *testing.T) {
	const fault = 5e-3
	e := mustEnsemble(t, 5)
	bad := func(k int) bool { return k >= 3 }
	run(t, e, 60, func(k, _ int) float64 {
		if bad(k) {
			return fault
		}
		return 0
	})
	for k, st := range e.Readout().Servers {
		if st.Selected == bad(k) {
			t.Fatalf("setup: Servers[%d].Selected = %v", k, st.Selected)
		}
	}

	// A long congestion episode on the colluders' paths: +20 ms of
	// symmetric queueing widens their interval bounds to ~100× the lie,
	// for far longer than the re-admission hysteresis.
	for i := 60; i < 120; i++ {
		for k := 0; k < 5; k++ {
			now := float64(i)*16 + float64(k)*16/5 + 1
			if bad(k) {
				feedCongested(t, e, k, now, fault, 20e-3)
			} else {
				feed(t, e, k, now, 0)
			}
		}
		for k, st := range e.Readout().Servers {
			if bad(k) && st.Selected {
				t.Fatalf("round %d: ballooned colluder %d re-admitted", i, k)
			}
			if !bad(k) && !st.Selected {
				t.Fatalf("round %d: honest server %d lost its seat", i, k)
			}
		}
	}

	// Now the episode hits an honest server instead: wide but truthful,
	// it must keep its seat throughout.
	for i := 120; i < 180; i++ {
		for k := 0; k < 5; k++ {
			now := float64(i)*16 + float64(k)*16/5 + 1
			switch {
			case k == 0:
				feedCongested(t, e, k, now, 0, 20e-3)
			case bad(k):
				feed(t, e, k, now, fault)
			default:
				feed(t, e, k, now, 0)
			}
		}
		if st := e.Readout().Servers[0]; !st.Selected {
			t.Fatalf("round %d: wide honest server evicted", i)
		}
	}
}

// TestNoQuorumKeepsClassification: with two calibrated servers that
// disagree there is no majority to convict either, so neither is
// flagged and both keep voting (the combiner then averages them — the
// safest answer available).
func TestNoQuorumKeepsClassification(t *testing.T) {
	e := mustEnsemble(t, 2)
	run(t, e, 80, func(k, _ int) float64 {
		if k == 1 {
			return 5e-3
		}
		return 0
	})
	ro := e.Readout()
	if ro.Falsetickers != 0 {
		t.Errorf("Falsetickers = %d with no quorum, want 0", ro.Falsetickers)
	}
	if !ro.Servers[0].Selected || !ro.Servers[1].Selected {
		t.Errorf("Selected = %v %v with no quorum, want both", ro.Servers[0].Selected, ro.Servers[1].Selected)
	}
}

// TestReadmitAfterValidation: a flagged server must re-intersect more
// than once before it votes again.
func TestReadmitAfterValidation(t *testing.T) {
	if readmitAfter < 2 {
		t.Errorf("readmitAfter = %d: one lucky overlap would restore the vote", readmitAfter)
	}
}

// --- read-path allocations ---

// TestReadPathZeroAlloc pins the read-path contract: combined reads
// run on stack scratch and allocate nothing — the first read of a
// readout too, which fills the read memo held in the readout itself,
// and a held read, which its one-voter piece serves.
func TestReadPathZeroAlloc(t *testing.T) {
	e := mustEnsemble(t, 5)
	last := run(t, e, 60, func(k, _ int) float64 {
		if k == 4 {
			return 5e-3
		}
		return 0
	})
	T := uint64((last + 1) / synthP)
	fresh := make([]*Readout, 101) // AllocsPerRun's warm-up run, then 100
	for i := range fresh {
		e.publish()
		fresh[i] = e.Readout()
	}
	e.publish()
	r := e.Readout()
	r.AbsoluteTime(T)
	if v, ready := viewMemo(r); !ready || v.one == nil || T < v.lo || T > v.hi {
		t.Fatalf("harness: memo %+v (ready %v) after the first read at %d, want a one-voter piece holding it", v, ready, T)
	}
	var sinkF float64
	var sinkI int
	for name, fn := range map[string]func(){
		"AbsoluteTime (first read, fills the memo)": func() {
			sinkF, fresh = fresh[0].AbsoluteTime(T), fresh[1:]
		},
		"AbsoluteTime (held, one voter)": func() { sinkF = r.AbsoluteTime(T) },
		"RateHat":                        func() { sinkF = r.RateHat() },
		"DifferenceSpan":                 func() { sinkF = r.DifferenceSpan(T, T+1000) },
		"Agreement":                      func() { sinkI = r.Agreement(T) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	_, _ = sinkF, sinkI
}
