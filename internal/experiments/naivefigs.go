package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timebase"
)

// oneDayScenario is the first-day dataset behind Figures 5 to 7:
// machine room, ServerInt, 16 s polling.
func oneDayScenario(opts Options) sim.Scenario {
	return sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, opts.seed())
}

// runFig5 regenerates Figure 5: naive per-packet rate estimates against
// the DAG reference, with the growing baseline Δ(TSC) damping errors at
// rate 1/Δ(t) but congested packets still producing poor estimates.
func runFig5(r *Report, opts Options) error {
	tr, err := sim.Generate(oneDayScenario(opts))
	if err != nil {
		return err
	}
	ex := tr.Completed()
	first := ex[0]
	// Reference rate over the whole trace from DAG stamps (the paper's
	// p̄ used for normalization).
	last := ex[len(ex)-1]
	pBar := (last.Tg - first.Tg) / float64(last.Tf-first.Tf)

	tab := r.table("series", "te_day", "naive_rel_ppm", "ref_rel_ppm")
	var relErrsLate []float64 // |naive − reference| after 0.2 day
	withinEarly, totalEarly := 0, 0
	for _, e := range ex[1:] {
		_, back, _, err := core.NaiveRatePair(
			core.Input{Ta: first.Ta, Tf: first.Tf, Tb: first.Tb, Te: first.Te},
			core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te})
		if err != nil {
			continue
		}
		ref := (e.Tg - first.Tg) / float64(e.Tf-first.Tf)
		day := e.Te / timebase.Day
		tab.Append(day, timebase.PPM(back/pBar-1), timebase.PPM(ref/pBar-1))
		rel := math.Abs(back/ref - 1)
		if day > 0.2 {
			relErrsLate = append(relErrsLate, rel)
		}
		if day > 0.05 && day < 0.2 {
			totalEarly++
			if rel < timebase.FromPPM(0.1) {
				withinEarly++
			}
		}
	}

	frac := float64(withinEarly) / float64(totalEarly)
	med := stats.Median(relErrsLate)
	worst := stats.Percentile(relErrsLate, 100)
	r.figure("worst |rel err| after 0.2 day", worst, PPM)

	r.atLeast("bulk quickly within 0.1 PPM of reference", frac, 0.8, Share)
	r.atMost("median damps to ≪0.1 PPM after 0.2 day", med, timebase.FromPPM(0.05), PPM)
	r.above("congested packets remain unreliable: worst/median", worst/med, 5, Ratio)
	return nil
}

// runFig6 regenerates Figure 6: naive per-packet offset estimates θ̂_i
// against reference, showing undamped network-delay noise biased to
// negative values by the more heavily utilised forward path.
func runFig6(r *Report, opts Options) error {
	tr, err := sim.Generate(oneDayScenario(opts))
	if err != nil {
		return err
	}
	ex := tr.Completed()
	first, last := ex[0], ex[len(ex)-1]
	// Fixed whole-trace clock: p̄ from DAG endpoints, origin aligned at
	// the first exchange (the paper uses a constant rate estimate made
	// over the entire trace for this figure).
	pBar := (last.Tg - first.Tg) / float64(last.Tf-first.Tf)
	cBar := first.Tb - float64(first.Ta)*pBar

	tab := r.table("series", "te_day", "naive_offset_s", "ref_offset_s")
	var devs []float64
	for _, e := range ex {
		in := core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te}
		naive := core.NaiveTheta(in, pBar, cBar)
		ref := float64(e.Tf)*pBar + cBar - e.Tg
		tab.Append(e.Te/timebase.Day, naive, ref)
		devs = append(devs, naive-ref)
	}

	med := stats.Median(devs)
	iqr := stats.IQR(devs)
	neg := 0
	for _, d := range devs {
		if d < 0 {
			neg++
		}
	}
	negFrac := float64(neg) / float64(len(devs))
	// The deviation distribution is (q← − q→)/2 plus the −Δ/2 ambiguity.
	r.above("deviations biased negative (forward more utilised)", negFrac, 0.6, Share)
	r.above("undamped noise ≫ filtered scale: IQR", iqr, 10*timebase.Microsecond, Seconds)
	r.within("median reflects −Δ/2 ambiguity ≈ −25µs", med, -80e-6, 0, Seconds)
	return nil
}

// runFig7 regenerates Figure 7: relative error of the robust rate
// estimate for E* = 20δ and 5δ against the expected bound 2E*/Δ(t);
// errors fall below 0.1 PPM and remain there, insensitive to E*.
func runFig7(r *Report, opts Options) error {
	sc := oneDayScenario(opts)
	// Reference rate over the whole trace from its DAG endpoints.
	_, _, pRef, err := detrendAnchors(sc, false)
	if err != nil {
		return err
	}

	// Per E*: the accepted share and the final |rel err|.
	var acc, final [2]float64
	for i, eStarFactor := range []float64{20, 5} {
		cfg := defaultCfg(16)
		cfg.EStarFactor = eStarFactor

		tab := r.table(fmt.Sprintf("Estar%.0fdelta", eStarFactor), "te_day", "rel_err", "bound")
		accepted, n := 0, 0
		var maxAfter float64 // worst error once past 0.1 day
		if _, err := streamRun(sc, cfg, func(e sim.Exchange, res core.Result) {
			day := e.Te / timebase.Day
			rel := math.Abs(res.PHat/pRef - 1)
			if res.Accepted {
				accepted++
			}
			if day > 0.1 && rel > maxAfter {
				maxAfter = rel
			}
			n++
			final[i] = rel
			tab.Append(day, rel, 2*res.PQuality)
		}); err != nil {
			return err
		}
		acc[i] = float64(accepted) / float64(n)
		r.figure(fmt.Sprintf("E*=%.0fδ accepted", eStarFactor), acc[i], Share)
		r.atMost(fmt.Sprintf("E*=%.0fδ error below 0.1 PPM and stays (max after 0.1d)", eStarFactor),
			maxAfter, timebase.FromPPM(0.1), PPM)
	}

	// Selectivity ordering: the tight threshold accepts far fewer
	// packets but the result barely changes (insensitivity to E*).
	// The paper saw 72% vs 3.9%; our synthetic queueing is lighter than
	// their campus path, so the gap is smaller — the shape claim is that
	// 5δ is markedly more selective yet the estimate is unaffected.
	r.atLeast("5δ markedly more selective than 20δ: acc(20δ) − acc(5δ)", acc[0]-acc[1], 0.10, Share)
	r.atMost("final estimates agree across E* (insensitivity): worse of the two",
		math.Max(final[0], final[1]), timebase.FromPPM(0.05), PPM)
	return nil
}

// runFig8 regenerates Figure 8: the offset algorithm's estimates against
// naive estimates and the DAG reference over the 3-week machine-room
// ServerInt trace; the algorithm stays ~30 µs from reference.
func runFig8(r *Report, opts Options) error {
	dur := opts.scale(3 * timebase.Week)
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, dur, opts.seed())

	// The figure's statistics are exact order statistics of the settled
	// series (after 1 h), so that series is kept: signed errors, and the
	// algorithm's and the naive estimate's |error| for the 90th pct.
	tab := r.table("series", "tb_day", "theta_hat_s", "theta_naive_s", "theta_ref_s")
	var settled, algAbs, naiveAbs []float64
	k := 0
	if _, err := streamRun(sc, defaultCfg(16), func(e sim.Exchange, res core.Result) {
		thetaG := refOffset(res, e)
		if e.TrueTf > timebase.Hour {
			errV := offsetErrOf(res, e)
			settled = append(settled, errV)
			algAbs = append(algAbs, math.Abs(errV))
			naiveAbs = append(naiveAbs, math.Abs(res.ThetaNaive-thetaG))
		}
		if k++; k%4 != 1 { // every fourth packet, from the first
			return
		}
		tab.Append(e.Tb/timebase.Day, res.ThetaHat, res.ThetaNaive, thetaG)
	}); err != nil {
		return err
	}

	med := stats.Median(settled)
	iqr := stats.IQR(settled)
	alg := stats.NewSorted(algAbs) // one sort for both quantiles
	medAbs, a90 := alg.Median(), alg.Percentile(90)
	n90 := stats.Percentile(naiveAbs, 90)
	r.figure("90th pct |err| algorithm", a90, Seconds)
	r.figure("90th pct |err| naive", n90, Seconds)

	r.atMost("median |error| at the tens-of-µs scale", medAbs, 60*timebase.Microsecond, Seconds)
	r.atMost("IQR small", iqr, 60*timebase.Microsecond, Seconds)
	r.below("algorithm beats naive at 90th pct: alg/naive", a90/n90, 1, Ratio)
	r.within("median shows −Δ/2 ambiguity", med, -80e-6, 10e-6, Seconds)
	return nil
}
