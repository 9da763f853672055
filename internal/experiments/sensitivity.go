package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timebase"
)

// sensitivityScenario is the 3-week MR-Int dataset behind Figure 9
// (scaled in Quick mode). The sweeps below regenerate the identical
// stream once per engine configuration instead of materializing the
// trace once: generation is a small fraction of the engine pass, and
// peak memory stays flat in the trace length.
func sensitivityScenario(opts Options, poll float64, seedOff uint64) sim.Scenario {
	dur := opts.scale(3 * timebase.Week)
	return sim.NewScenario(sim.MachineRoom, sim.ServerInt(), poll, dur, opts.seed()+seedOff)
}

// sweepFiveNum streams the scenario through one engine configuration
// and folds the settled offset errors into an online five-number
// summary.
func sweepFiveNum(sc sim.Scenario, cfg core.Config, settle float64) (stats.FiveNum, error) {
	acc := stats.NewStreamingFiveNum()
	_, err := streamRun(sc, cfg, func(e sim.Exchange, res core.Result) {
		if e.TrueTf > settle {
			acc.Add(offsetErrOf(res, e))
		}
	})
	if err != nil {
		return stats.FiveNum{}, err
	}
	return acc.FiveNum(), nil
}

// runFig9a: sensitivity of offset error to the window size τ′/τ*
// over [1/16, 4], E = 4δ, with and without the local rate refinement.
// The paper's result: very low sensitivity, optimum near τ′ = τ*.
func runFig9a(r *Report, opts Options) error {
	sc := sensitivityScenario(opts, 16, 0)
	ratios := []float64{1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1, 2, 4}

	for _, tag := range []string{"nolocal", "local"} {
		useLocal := tag == "local"
		tab := r.table("sweep_"+tag, "ratio", "p01_us", "p25_us", "p50_us", "p75_us", "p99_us")
		var medians []float64
		for _, ratio := range ratios {
			cfg := defaultCfg(16)
			cfg.OffsetWindow = ratio * core.TauStar
			cfg.UseLocalRate = useLocal
			if useLocal {
				cfg.LocalRateWindow = 20 * core.TauStar // τ̄ = 20τ* per the figure caption
				cfg.TopWindow = math.Max(cfg.TopWindow, 2*cfg.LocalRateWindow)
				cfg.ShiftWindow = cfg.LocalRateWindow / 2
			}
			fn, err := sweepFiveNum(sc, cfg, timebase.Hour)
			if err != nil {
				return err
			}
			fiveNumRow(tab, ratio, fn)
			medians = append(medians, fn.P50)
			r.fiveNum(fmt.Sprintf("%s τ'/τ*=%g", tag, ratio), fn)
		}
		lo, hi := stats.MinMax(medians)
		r.atMost(fmt.Sprintf("median insensitive to τ' (%s): spread", tag), hi-lo, 30*timebase.Microsecond, Seconds)
		r.above(fmt.Sprintf("medians in the −Δ/2 band (%s): lowest", tag), lo, -90e-6, Seconds)
		r.below(fmt.Sprintf("medians in the −Δ/2 band (%s): highest", tag), hi, 10e-6, Seconds)
	}
	return nil
}

// runFig9b: sensitivity to the quality parameter E/δ over [1, 20] at
// τ′ = τ*/2. Again: very low sensitivity.
func runFig9b(r *Report, opts Options) error {
	sc := sensitivityScenario(opts, 16, 0)
	factors := []float64{1, 2, 3, 4, 7, 10, 20}

	tab := r.table("sweep", "e_over_delta", "p01_us", "p25_us", "p50_us", "p75_us", "p99_us")
	var medians, iqrs []float64
	for _, f := range factors {
		cfg := defaultCfg(16)
		cfg.OffsetWindow = core.TauStar / 2
		cfg.EFactor = f
		fn, err := sweepFiveNum(sc, cfg, timebase.Hour)
		if err != nil {
			return err
		}
		fiveNumRow(tab, f, fn)
		medians = append(medians, fn.P50)
		iqrs = append(iqrs, fn.P75-fn.P25)
		r.fiveNum(fmt.Sprintf("E=%gδ", f), fn)
	}
	lo, hi := stats.MinMax(medians)
	r.atMost("median insensitive to E: spread", hi-lo, 30*timebase.Microsecond, Seconds)
	// Optimal results at small multiples of δ: the IQR at E=4δ is within
	// 2x of the best across the sweep.
	bestIQR, _ := stats.MinMax(iqrs)
	r.atMost("E=4δ near-optimal: IQR(4δ)/best IQR", iqrs[3]/bestIQR, 2, Ratio)
	return nil
}

// runFig9c: sensitivity to polling period over 16–512 s at τ′ = τ*,
// E = 4δ. The paper: the median moves by only a few µs despite a 32x
// reduction in raw information.
func runFig9c(r *Report, opts Options) error {
	polls := []float64{16, 32, 64, 128, 256, 512}

	tab := r.table("sweep", "poll_s", "p01_us", "p25_us", "p50_us", "p75_us", "p99_us")
	var medians []float64
	for _, poll := range polls {
		fn, err := sweepFiveNum(sensitivityScenario(opts, poll, 0), defaultCfg(poll), 3*timebase.Hour)
		if err != nil {
			return err
		}
		fiveNumRow(tab, poll, fn)
		medians = append(medians, fn.P50)
		r.fiveNum(fmt.Sprintf("poll=%gs", poll), fn)
	}
	lo, hi := stats.MinMax(medians)
	r.atMost("median barely moves across 32x polling range: spread", hi-lo, 30*timebase.Microsecond, Seconds)
	r.above("all medians in the −Δ/2 band: lowest", lo, -100e-6, Seconds)
	r.below("all medians in the −Δ/2 band: highest", hi, 10e-6, Seconds)
	return nil
}

// runFig10 regenerates Figure 10: offset error percentiles across the
// four host-server environments at polling period 64. Moving from the
// laboratory to the machine room reduces variability; the local server
// improves it further; the remote server's median shifts by ≈ −Δ/2.
func runFig10(r *Report, opts Options) error {
	dur := opts.scale(timebase.Week)

	cases := []struct {
		name string
		env  sim.Environment
		spec sim.ServerSpec
	}{
		{"Lab-Int", sim.Laboratory, sim.ServerInt()},
		{"MR-Int", sim.MachineRoom, sim.ServerInt()},
		{"MR-Loc", sim.MachineRoom, sim.ServerLoc()},
		{"MR-Ext", sim.MachineRoom, sim.ServerExt()},
	}

	tab := r.table("environments", "case", "p01_us", "p25_us", "p50_us", "p75_us", "p99_us")
	const labInt, mrInt, mrLoc, mrExt = 0, 1, 2, 3 // positions in cases
	summaries := make([]stats.FiveNum, len(cases))
	for i, c := range cases {
		sc := sim.NewScenario(c.env, c.spec, 64, dur, opts.seed()+uint64(200+i))
		fn, err := sweepFiveNum(sc, defaultCfg(64), 3*timebase.Hour)
		if err != nil {
			return err
		}
		summaries[i] = fn
		fiveNumRow(tab, float64(i), fn)
		r.fiveNum(c.name, fn)
	}

	iqr := func(i int) float64 { return summaries[i].P75 - summaries[i].P25 }
	extMedian := summaries[mrExt].P50
	r.atMost("machine room tighter than laboratory: IQR MR-Int/Lab-Int", iqr(mrInt)/iqr(labInt), 1.1, Ratio)
	r.atMost("local server at least as tight as internal: IQR MR-Loc/MR-Int", iqr(mrLoc)/iqr(mrInt), 1.2, Ratio)
	r.within("remote server median shifted by ≈ −Δ/2 (−250µs)", extMedian, -400e-6, -120e-6, Seconds)
	r.above("remote server more variable: IQR MR-Ext/MR-Int", iqr(mrExt)/iqr(mrInt), 1, Ratio)
	r.below("error ≪ remote RTT (14.2ms): |median|", math.Abs(extMedian), timebase.Millisecond, Seconds)
	return nil
}
