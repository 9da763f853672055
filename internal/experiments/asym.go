package experiments

import (
	"fmt"
	"math"

	"repro/internal/ensemble"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// asymExtra is the differential forward-path delay injected into the
// asym experiment's first two servers. Its one-way bias, asymExtra/2
// (the engine splits the extra minimum RTT evenly, so the extra forward
// delay pushes the calibrated clock late), is invisible to any
// single-path filter (paper §2.3) but large against the machine-room
// noise floor, so the combined clock's tail error is dominated by where
// the median lands among the biased clocks.
const asymExtra = 200 * timebase.Microsecond

// runAsym proves the damped path-asymmetry correction on the scenario
// it exists for: three ServerInt-class upstreams of which TWO share an
// extra forward-path delay. Each biased server's clock silently reads
// asymExtra/2 late while staying healthy by every single-path quality
// signal, so the biased pair holds the weighted median and the
// uncorrected combined clock inherits nearly the full bias. The
// selection sweep's interval intersection still spans all three
// servers, and its midpoint splits the camps — exactly the consensus
// the correction transfers onto each clock: corrected, all three
// converge toward the midpoint and the combined clock gives back about
// half the differential bias. The experiment runs the identical trace
// corrected and uncorrected (the ablation switch), plus a symmetric
// control where the correction must do no harm.
func runAsym(r *Report, opts Options) error {
	dur := opts.scale(2 * timebase.Day)
	tailFrom := 0.75 * dur

	biased := sim.NewAsymmetricScenario(sim.MachineRoom, []float64{asymExtra, asymExtra, 0}, 16, dur, opts.seed())
	// The symmetric control: identical draws, no differential asymmetry.
	symm := sim.NewAsymmetricScenario(sim.MachineRoom, []float64{0, 0, 0}, 16, dur, opts.seed())

	var uncorrErrs []float64
	uncorrMed, _, err := ensembleRun(biased, ensemble.Config{}, tailFrom, func(s ensembleStep) {
		uncorrErrs = append(uncorrErrs, s.Err)
	})
	if err != nil {
		return err
	}
	// Series artifact: corrected vs uncorrected on the identical biased
	// trace, exchange-aligned.
	tab := r.table("series", "t_day", "corr_err_us", "uncorr_err_us")
	corrMed, corr, err := ensembleRun(biased, ensemble.Config{AsymCorrection: true}, tailFrom, func(s ensembleStep) {
		tab.Append(s.TrueTf/timebase.Day,
			s.Err/timebase.Microsecond, uncorrErrs[tab.Len()]/timebase.Microsecond)
	})
	if err != nil {
		return err
	}
	symmCorrMed, symmCorr, err := ensembleRun(symm, ensemble.Config{AsymCorrection: true}, tailFrom, nil)
	if err != nil {
		return err
	}
	symmUncorrMed, _, err := ensembleRun(symm, ensemble.Config{}, tailFrom, nil)
	if err != nil {
		return err
	}

	// Steady-state per-server view of the corrected run: applied
	// corrections, their clamps, and the selection result.
	states := corr.Servers
	worstSymmCorr := 0.0
	for _, st := range symmCorr.Servers {
		if c := math.Abs(st.AsymCorrection); c > worstSymmCorr {
			worstSymmCorr = c
		}
	}
	r.figure("servers 0,1 extra forward delay", asymExtra, Seconds)
	r.figure("servers 0,1 one-way bias", asymExtra/2, Seconds)
	r.figure("tail median |err| corrected", corrMed, Seconds)
	r.figure("tail median |err| uncorrected", uncorrMed, Seconds)
	r.figure("symmetric control tail median |err| corrected", symmCorrMed, Seconds)
	r.figure("symmetric control tail median |err| uncorrected", symmUncorrMed, Seconds)
	unselected := 0
	for k, st := range states {
		selected := 1.0
		if !st.Selected {
			selected = 0
			unselected++
		}
		r.figure(fmt.Sprintf("server %d asymmetry hint", k), st.AsymmetryHint, Seconds)
		r.figure(fmt.Sprintf("server %d selected", k), selected, Count)
	}

	// The CI gate: the corrected combined clock is strictly tighter on
	// the asymmetric trace. The biased pair holds the median, so the
	// correction recovers about half the differential bias; 0.8x leaves
	// headroom for noise while rejecting a correction that does nothing.
	r.atMost("correction tightens the asymmetric-path clock: tail median corrected/uncorrected",
		corrMed/uncorrMed, 0.8, Ratio)
	r.atMost("correction is harmless on symmetric paths: tail median corrected/uncorrected",
		symmCorrMed/symmUncorrMed, 1.1, Ratio)
	// Signs match the injected asymmetry: the biased pair reads late.
	r.above("server 0 correction positive (late)", states[0].AsymCorrection, 0, Seconds)
	r.above("server 1 correction positive (late)", states[1].AsymCorrection, 0, Seconds)
	r.below("server 2 correction negative", states[2].AsymCorrection, 0, Seconds)
	r.below("symmetric corrections stay near zero: max |correction| < bias/4", worstSymmCorr, asymExtra/8, Seconds)
	r.equals("no server is convicted for its asymmetry: unselected at steady state", float64(unselected), 0, Count)
	return nil
}
