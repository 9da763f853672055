package experiments

import (
	"fmt"
	"math"

	"repro/internal/allan"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timebase"
)

// The detrended offset series of Section 3.1 — θ(t_i) = Tf_i·p̄ − Tg_i
// with p̄ chosen so first and last offsets agree (forced to zero) — is
// computed in two streaming passes: the anchors pass finds the first
// and last completed exchange (p̄ needs both ends), then the emit pass
// regenerates the identical stream and folds one (Tg, θ) pair at a
// time. Nothing is materialized, so a multi-week characterization runs
// at constant memory; the arithmetic is the one the old batch helper
// performed, term for term. With corrected=true the paper's corrected
// receive stamps are used (Figure 3); otherwise the raw ones (Figure 2,
// whose µs-scale irregularities the paper attributes to exactly this).

func detrendStamp(e sim.Exchange, corrected bool) uint64 {
	if corrected {
		return e.TfCorr
	}
	return e.Tf
}

// detrendAnchors streams the scenario once and returns its first and
// last completed exchanges plus the detrending period p̄.
func detrendAnchors(sc sim.Scenario, corrected bool) (first, last sim.Exchange, pBar float64, err error) {
	st, err := sim.NewStream(sc)
	if err != nil {
		return sim.Exchange{}, sim.Exchange{}, 0, err
	}
	st.SetTrim(true)
	n := 0
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		if e.Lost {
			continue
		}
		if n == 0 {
			first = e
		}
		last = e
		n++
	}
	if n < 2 {
		return sim.Exchange{}, sim.Exchange{}, 0, fmt.Errorf("experiments: %s: %d completed exchanges, need 2", sc.Name, n)
	}
	pBar = (last.Tg - first.Tg) / float64(detrendStamp(last, corrected)-detrendStamp(first, corrected))
	return first, last, pBar, nil
}

// detrendEmit is the second pass: it streams the scenario again and
// emits each completed exchange's (Tg, θ) to fn in order.
func detrendEmit(sc sim.Scenario, corrected bool, first sim.Exchange, pBar float64, fn func(tg, theta float64) error) error {
	st, err := sim.NewStream(sc)
	if err != nil {
		return err
	}
	st.SetTrim(true)
	for {
		e, ok := st.Next()
		if !ok {
			return nil
		}
		if e.Lost {
			continue
		}
		theta := float64(detrendStamp(e, corrected)-detrendStamp(first, corrected))*pBar - (e.Tg - first.Tg)
		if err := fn(e.Tg, theta); err != nil {
			return err
		}
	}
}

// runFig2 regenerates Figure 2: offset drift of the uncorrected TSC
// clock in the laboratory and machine-room environments, over a 1000 s
// zoom and the full trace, with the ±0.1 PPM cone as the bound.
func runFig2(r *Report, opts Options) error {
	dur := opts.scale(timebase.Week)
	r.figure("trace span", dur, Seconds)

	for _, env := range []sim.Environment{sim.Laboratory, sim.MachineRoom} {
		sc := sim.NewScenario(env, sim.ServerInt(), 16, dur, opts.seed())
		sink := r.series(env.String(), "t_s", "offset_s")
		first, _, pBar, err := detrendAnchors(sc, false)
		if err != nil {
			return err
		}

		// The cone check: from the detrended origin, |θ(t)| must stay
		// within 0.1 PPM · elapsed (plus timestamping noise floor). The
		// 1000 s SKM head is the one bounded buffer (its size is set by
		// the poll period, not the trace length); everything else folds.
		cone := timebase.FromPPM(0.1)
		floor := 25 * timebase.Microsecond
		worstRatio := 0.0
		maxAbs := 0.0
		var t0 float64
		var headTs, headTh []float64
		i := 0
		err = detrendEmit(sc, false, first, pBar, func(tg, theta float64) error {
			if i == 0 {
				t0 = tg
			}
			if i%8 == 0 {
				sink.Append(tg, theta)
			}
			i++
			el := tg - t0
			if el < 1000 {
				headTs = append(headTs, tg)
				headTh = append(headTh, theta)
				return nil
			}
			if a := math.Abs(theta); a > maxAbs {
				maxAbs = a
			}
			if ratio := math.Abs(theta) / (cone*el + floor); ratio > worstRatio {
				worstRatio = ratio
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.figure(fmt.Sprintf("%s max |offset drift| after 1000s", env), maxAbs, Seconds)
		r.atMost(fmt.Sprintf("%s drift inside 0.1 PPM cone", env), worstRatio, 1, Ratio)

		// Over the first 1000 s the SKM holds: the residual after the
		// best local linear fit is dominated by µs timestamping noise.
		res := maxResidualAfterLinearFit(headTs, headTh)
		r.below(fmt.Sprintf("%s SKM residual (1000s)", env), res, 30*timebase.Microsecond, Seconds)
	}
	return nil
}

// maxResidualAfterLinearFit returns the maximum absolute residual of ys
// about their least-squares line in ts.
func maxResidualAfterLinearFit(ts, ys []float64) float64 {
	n := float64(len(ts))
	if n < 2 {
		return 0
	}
	var st, sy, stt, sty float64
	for i := range ts {
		st += ts[i]
		sy += ys[i]
		stt += ts[i] * ts[i]
		sty += ts[i] * ys[i]
	}
	den := n*stt - st*st
	if den == 0 {
		return 0
	}
	b := (n*sty - st*sy) / den
	a := (sy - b*st) / n
	worst := 0.0
	for i := range ts {
		if r := math.Abs(ys[i] - (a + b*ts[i])); r > worst {
			worst = r
		}
	}
	return worst
}

// runFig3 regenerates Figure 3: Allan deviation curves for the four
// host-server environments. The shape checks are the paper's hardware
// characterization: a 1/τ small-scale zone, a minimum near 0.01 PPM
// around τ* = 1000 s, and a large-scale rise bounded by 0.1 PPM with the
// laboratory above the machine room.
func runFig3(r *Report, opts Options) error {
	dur := opts.scale(timebase.Week)

	type envCase struct {
		name string
		env  sim.Environment
		spec sim.ServerSpec
	}
	cases := []envCase{
		{"Lab-Int", sim.Laboratory, sim.ServerInt()},
		{"MR-Int", sim.MachineRoom, sim.ServerInt()},
		{"MR-Loc", sim.MachineRoom, sim.ServerLoc()},
		{"MR-Ext", sim.MachineRoom, sim.ServerExt()},
	}

	curves := make([][]allan.Point, len(cases))
	for i, c := range cases {
		sc := sim.NewScenario(c.env, c.spec, 16, dur, opts.seed()+uint64(100+i))
		// Streaming stability analysis: the anchors pass sizes the
		// batch-identical scale grid from the trace's time span, then the
		// emit pass pushes each detrended offset through the resampler
		// straight into the online Allan fold — the series is never
		// resident, and the fold's ring is bounded by the largest scale.
		first, last, pBar, err := detrendAnchors(sc, true)
		if err != nil {
			return err
		}
		nUniform := int((last.Tg-first.Tg)/sc.PollPeriod) + 1
		grid, err := allan.CurveGrid(nUniform, 4)
		if err != nil {
			return err
		}
		fold, err := allan.NewFold(sc.PollPeriod, grid)
		if err != nil {
			return err
		}
		res, err := allan.NewResampler(sc.PollPeriod, func(v float64) error {
			fold.Add(v)
			return nil
		})
		if err != nil {
			return err
		}
		if err := detrendEmit(sc, true, first, pBar, res.Push); err != nil {
			return err
		}
		if err := res.Finish(); err != nil {
			return err
		}
		pts := fold.Points()
		curves[i] = pts

		tab := r.table(c.name, "tau_s", "allan_dev")
		for _, p := range pts {
			tab.Append(p.Tau, p.Deviation)
		}
		least := minDev(pts)
		r.figure(c.name+" min deviation", least.Deviation, PPM)
		r.figure(c.name+" min deviation at τ", least.Tau, Seconds)
		r.figure(c.name+" max deviation (τ ≥ 100s)", maxDevAbove(pts, 100), PPM)
	}

	for i, c := range cases {
		pts := curves[i]
		// 1/τ zone: deviation at τ≈256 s about 8x below τ≈32 s.
		r.within(c.name+" small-scale 1/τ slope: dev(32s)/dev(256s)",
			devNear(pts, 32)/devNear(pts, 256), 4, 16, Ratio)
		// Precision achievable near τ*: of the order of 0.01 PPM.
		dTauStar := devNear(pts, 1000)
		r.atMost(c.name+" precision near τ* ≈0.01 PPM", dTauStar, timebase.FromPPM(0.04), PPM)
		// SKM fails past τ*: the curve turns up as wander enters.
		r.atLeast(c.name+" curve rises past τ*: dev(4000s)/dev(1000s)",
			devNear(pts, 4000)/dTauStar, 0.8, Ratio)
		// Global stability bound.
		r.atMost(c.name+" bounded by 0.1 PPM (τ>500s)", maxDevAbove(pts, 500), timebase.FromPPM(0.1), PPM)
	}
	// Laboratory above machine room at large scales (within 5 %).
	lab, mr := curves[0], curves[1]
	tauBig := math.Min(lab[len(lab)-1].Tau, mr[len(mr)-1].Tau) / 2
	r.atLeast("laboratory above machine room at large τ: Lab-Int/MR-Int",
		devNear(lab, tauBig)/devNear(mr, tauBig), 0.95, Ratio)
	return nil
}

// minDev is the first point of least deviation.
func minDev(pts []allan.Point) allan.Point {
	m := allan.Point{Deviation: math.Inf(1)}
	for _, p := range pts {
		if p.Deviation < m.Deviation {
			m = p
		}
	}
	return m
}

func maxDevAbove(pts []allan.Point, tauMin float64) float64 {
	m := 0.0
	for _, p := range pts {
		if p.Tau >= tauMin && p.Deviation > m {
			m = p.Deviation
		}
	}
	return m
}

func devNear(pts []allan.Point, tau float64) float64 {
	best, bestDist := 0.0, math.Inf(1)
	for _, p := range pts {
		if d := math.Abs(math.Log(p.Tau / tau)); d < bestDist {
			bestDist = d
			best = p.Deviation
		}
	}
	return best
}

// runFig4 regenerates Figure 4: representative backward network delay
// and server delay series (1000 successive packets, machine room with
// the local server), computed exactly as the paper computes them:
// d←(i) = Tg_i − Te_i and d↑(i) = Te_i − Tb_i.
func runFig4(r *Report, opts Options) error {
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerLoc(), 16, 1100*16, opts.seed())
	// The figure wants exactly 1000 successive packets: pull them from
	// the stream and stop — the bounded sample is the working set, and
	// the generator never runs past what the figure consumes.
	st, err := sim.NewStream(sc)
	if err != nil {
		return err
	}
	st.SetTrim(true)

	var back, srv []float64
	tab := r.table("series", "te_s", "backward_delay_s", "server_delay_s")
	for len(back) < 1000 {
		e, ok := st.Next()
		if !ok {
			break
		}
		if e.Lost {
			continue
		}
		b := e.Tg - e.Te
		s := e.Te - e.Tb
		back = append(back, b)
		srv = append(srv, s)
		tab.Append(e.Te, b, s)
	}

	bMin, bMax := stats.MinMax(back)
	sMin, sMax := stats.MinMax(srv)
	bSorted, sSorted := stats.NewSorted(back), stats.NewSorted(srv) // one sort each
	b05, bMed, sMed := bSorted.Percentile(5), bSorted.Median(), sSorted.Median()
	r.figure("backward delay median", bMed, Seconds)
	r.figure("backward delay max", bMax, Seconds)
	r.figure("server delay median", sMed, Seconds)
	r.figure("server delay max", sMax, Seconds)

	// Note: Tg − Te can go *negative* on rare packets — the paper's own
	// observation that server departure stamps Te can exceed true
	// departure by up to ~1 ms (Section 4.2) — so the deterministic
	// minimum is probed with a low percentile, not the raw minimum.
	r.within("backward delay p05 near d< (~156µs)", b05, 130e-6, 250e-6, Seconds)
	r.atLeast("Te outliers bounded: backward delay min (paper: up to ~1ms early)", bMin, -1.5e-3, Seconds)
	r.within("server delay min in µs range", sMin, 2e-6, 50e-6, Seconds)
	r.above("server delays ≪ network delays: median backward/server", bMed/sMed, 3, Ratio)
	return nil
}
