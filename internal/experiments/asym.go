package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/sim"
	"repro/internal/timebase"
	"repro/internal/trace"
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
func runAsym(opts Options) (*Report, error) {
	r := newReport("asym", Title("asym"))
	dur := opts.scale(2 * timebase.Day)
	tailFrom := 0.75 * dur

	gen := func(extra []float64) (*sim.MultiTrace, error) {
		sc := sim.NewAsymmetricScenario(sim.MachineRoom, extra, 16, dur, opts.seed())
		return sim.GenerateMulti(sc)
	}
	biased, err := gen([]float64{asymExtra, asymExtra, 0})
	if err != nil {
		return nil, err
	}
	// The symmetric control: identical draws, no differential asymmetry.
	symm, err := gen([]float64{0, 0, 0})
	if err != nil {
		return nil, err
	}
	nSrv := 3

	type runOut struct {
		errs []float64 // combined absolute-clock error per exchange
		ex   []sim.MultiExchange
		ens  *ensemble.Ensemble
	}
	run := func(tr *sim.MultiTrace, corrected bool) (*runOut, error) {
		cfgs := make([]core.Config, nSrv)
		for i := range cfgs {
			cfgs[i] = defaultCfg(16)
		}
		ens, err := ensemble.New(ensemble.Config{Engines: cfgs, AsymCorrection: corrected})
		if err != nil {
			return nil, err
		}
		out := &runOut{ens: ens, ex: tr.Completed()}
		out.errs = make([]float64, len(out.ex))
		for i, e := range out.ex {
			if _, err := ens.Process(e.Server, core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te}); err != nil {
				return nil, fmt.Errorf("server %d seq %d: %w", e.Server, e.Seq, err)
			}
			out.errs[i] = ens.Readout().AbsoluteTime(e.Tf) - e.Tg
		}
		return out, nil
	}

	corr, err := run(biased, true)
	if err != nil {
		return nil, err
	}
	uncorr, err := run(biased, false)
	if err != nil {
		return nil, err
	}
	symmCorr, err := run(symm, true)
	if err != nil {
		return nil, err
	}
	symmUncorr, err := run(symm, false)
	if err != nil {
		return nil, err
	}

	// Series artifact: corrected vs uncorrected on the identical biased
	// trace, exchange-aligned.
	tab := trace.NewTable("t_day", "corr_err_us", "uncorr_err_us")
	for i, e := range corr.ex {
		if err := tab.Append(e.TrueTf/timebase.Day,
			corr.errs[i]/timebase.Microsecond, uncorr.errs[i]/timebase.Microsecond); err != nil {
			return nil, err
		}
	}
	if err := r.save(opts, "series", tab); err != nil {
		return nil, err
	}

	tail := func(o *runOut) []float64 {
		var out []float64
		for i := range o.errs {
			if o.ex[i].TrueTf > tailFrom {
				out = append(out, o.errs[i])
			}
		}
		return out
	}
	corrMed := medianAbs(tail(corr))
	uncorrMed := medianAbs(tail(uncorr))
	symmCorrMed := medianAbs(tail(symmCorr))
	symmUncorrMed := medianAbs(tail(symmUncorr))

	// Steady-state per-server view of the corrected run: applied
	// corrections, their clamps, and the selection result.
	states := corr.ens.Readout().ServerStates()
	worstSymmCorr := 0.0
	for _, st := range symmCorr.ens.Readout().ServerStates() {
		if c := math.Abs(st.AsymCorrection); c > worstSymmCorr {
			worstSymmCorr = c
		}
	}
	r.addLine("servers 0,1 carry %s extra forward delay (one-way bias %s); server 2 symmetric",
		timebase.FormatDuration(asymExtra), timebase.FormatDuration(asymExtra/2))
	r.addLine("tail medians |err|: corrected %s, uncorrected %s (%.2fx); symmetric control %s vs %s",
		timebase.FormatDuration(corrMed), timebase.FormatDuration(uncorrMed), corrMed/uncorrMed,
		timebase.FormatDuration(symmCorrMed), timebase.FormatDuration(symmUncorrMed))
	for k, st := range states {
		r.addLine("server %d: correction %s (hint %s), selected %v",
			k, timebase.FormatDuration(st.AsymCorrection), timebase.FormatDuration(st.AsymmetryHint), st.Selected)
	}

	// The CI gate: the corrected combined clock is strictly tighter on
	// the asymmetric trace. The biased pair holds the median, so the
	// correction recovers about half the differential bias; 0.8x leaves
	// headroom for noise while rejecting a correction that does nothing.
	r.addCheck("correction tightens the asymmetric-path clock", "corrected tail median ≤ 0.8× uncorrected",
		fmt.Sprintf("%.2fx", corrMed/uncorrMed), corrMed <= 0.8*uncorrMed)
	r.addCheck("correction is harmless on symmetric paths", "symmetric tail median ≤ 1.1× uncorrected",
		fmt.Sprintf("%.2fx", symmCorrMed/symmUncorrMed), symmCorrMed <= 1.1*symmUncorrMed)
	r.addCheck("correction signs match the injected asymmetry", "servers 0,1 positive (late), server 2 negative",
		fmt.Sprintf("%s %s %s", timebase.FormatDuration(states[0].AsymCorrection),
			timebase.FormatDuration(states[1].AsymCorrection), timebase.FormatDuration(states[2].AsymCorrection)),
		states[0].AsymCorrection > 0 && states[1].AsymCorrection > 0 && states[2].AsymCorrection < 0)
	r.addCheck("symmetric corrections stay near zero", "max |correction| < bias/4 on the control",
		timebase.FormatDuration(worstSymmCorr), worstSymmCorr < asymExtra/8)
	allSelected := true
	for _, st := range states {
		if !st.Selected {
			allSelected = false
		}
	}
	r.addCheck("no server is convicted for its asymmetry", "all three selected at steady state",
		fmt.Sprintf("selected=%v", allSelected), allSelected)
	return r, nil
}
