package experiments

// The robustness experiments (Figures 11a–d, 12, and the SW-NTP
// baseline) run on the streaming harness: scenarios are regenerated as
// pull streams, every per-packet quantity folds into online
// accumulators or latches as it passes, and series artifacts row-stream
// to disk through seriesSink. Figure 12 is the one two-pass case: its
// histogram needs coverage bounds that are only known after a full
// quantile pass, so the identical stream is generated twice — the
// memory ceiling stays flat in the trace length either way.

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/swntp"
	"repro/internal/timebase"
)

// runFig11a regenerates Figure 11a: recovery after a multi-day loss of
// data (the paper simulates server unavailability with a 3.8-day gap).
func runFig11a(r *Report, opts Options) error {
	dur := 10 * timebase.Day
	gapStart, gapEnd := 4*timebase.Day, 7.8*timebase.Day
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 64, dur, opts.seed())
	sc.Gaps = []sim.Gap{{From: gapStart, To: gapEnd}}

	sink := r.series("series", "tb_day", "offset_err_us")

	// Error at the last packet before the gap, the first after, and
	// after 30 minutes of recovery data — all latched in stream order.
	var preGap, firstAfter, recovered, lastPHat float64
	var tFirstAfter float64
	havePost, haveRecovered := false, false
	st, err := streamRun(sc, defaultCfg(64), func(e sim.Exchange, res core.Result) {
		errV := offsetErrOf(res, e)
		sink.Append(e.Tb/timebase.Day, errV/1e-6)
		t := e.TrueTf
		if t < gapStart {
			preGap = errV
		}
		if t > gapEnd && !havePost {
			firstAfter, tFirstAfter = errV, t
			havePost = true
		}
		if havePost && !haveRecovered && t > tFirstAfter+30*timebase.Minute {
			recovered = errV
			haveRecovered = true
		}
		lastPHat = res.PHat
	})
	if err != nil {
		return err
	}
	r.figure("gap", gapEnd-gapStart, Seconds)
	r.figure("error before the gap", preGap, Seconds)
	r.figure("error first after the gap", firstAfter, Seconds)
	r.figure("error after 30 min of data", recovered, Seconds)

	r.atMost("first post-gap estimate already bounded: |err|", math.Abs(firstAfter), timebase.Millisecond, Seconds)
	r.atMost("fast recovery (30 min of data): |err|", math.Abs(recovered), 150*timebase.Microsecond, Seconds)
	// The rate estimate's validity across the gap is what makes this
	// possible: no warm-up is needed (Section 5.2).
	trueP := st.Osc().MeanPeriod()
	finalRate := math.Abs(lastPHat/trueP - 1)
	r.atMost("rate estimate survives the gap", finalRate, timebase.FromPPM(0.1), PPM)
	return nil
}

// runFig11b regenerates Figure 11b: a server clock error of 150 ms
// lasting a few minutes. RTT filtering cannot see it (server timestamp
// errors cancel in RTT), so the offset sanity check is the containment.
func runFig11b(r *Report, opts Options) error {
	dur := 2 * timebase.Day
	faultAt := dur / 2
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, dur, opts.seed())
	sc.Servers[0].Server.Faults = []netem.FaultWindow{
		{From: faultAt, To: faultAt + 4*timebase.Minute, Offset: 150 * timebase.Millisecond},
	}

	sink := r.series("series", "tb_day", "offset_err_us", "sanity")
	sanityCount := 0
	settled, lastErr := stats.NewErrFold(), 0.0
	if _, err := streamRun(sc, defaultCfg(16), func(e sim.Exchange, res core.Result) {
		errV := offsetErrOf(res, e)
		s := 0.0
		if res.OffsetSanityTriggered {
			s = 1
			sanityCount++
		}
		if e.TrueTf > timebase.Hour {
			settled.Add(errV)
		}
		lastErr = errV
		sink.Append(e.Tb/timebase.Day, errV/1e-6, s)
	}); err != nil {
		return err
	}

	damage := r.errFigures("settled", Seconds, settled)
	r.atLeast("sanity check triggered (packets)", float64(sanityCount), 1, Count)
	r.atMost("damage limited to ~a millisecond: max |err| vs 150ms fault", damage.AbsMax, 4*timebase.Millisecond, Seconds)
	r.atMost("healed by end of trace: |err|", math.Abs(lastErr), 300*timebase.Microsecond, Seconds)
	return nil
}

// runFig11c regenerates Figure 11c: two artificial 0.9 ms upward level
// shifts in the host→server direction — one shorter than the detection
// window T_s (never detected, little impact) and one permanent (detected
// a time T_s later; the estimate then jumps by ≈ Δshift/2 = 0.45 ms, the
// change in path asymmetry, not an algorithm failure).
func runFig11c(r *Report, opts Options) error {
	cfg := defaultCfg(16)
	dur := 4 * timebase.Day
	tempAt := dur / 8
	permAt := dur / 2
	tempDur := cfg.ShiftWindow / 3 // below Ts: should never be detected
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, dur, opts.seed())
	sc.Servers[0].Forward.Shifts = []netem.Shift{
		{At: tempAt, Delta: 0.9 * timebase.Millisecond, Duration: tempDur},
		{At: permAt, Delta: 0.9 * timebase.Millisecond},
	}

	sink := r.series("series", "tb_day", "offset_err_us", "shift_detected")
	// Median error well before vs well after the permanent shift. The
	// "before" window is fixed a priori; the "after" window opens two
	// hours past the detection, which the stream reveals in time order —
	// everything later in the pass can test against it directly.
	before, after := stats.NewErrFold(), stats.NewErrFold()
	var detections []float64
	earlyDetections := 0 // before the permanent shift: the temporary one, or a false alarm
	permDetectedAt := math.Inf(1)
	if _, err := streamRun(sc, cfg, func(e sim.Exchange, res core.Result) {
		errV := offsetErrOf(res, e)
		t := e.TrueTf
		d := 0.0
		if res.UpwardShiftDetected {
			d = 1
			detections = append(detections, t)
			if t < permAt {
				earlyDetections++
			} else if t < permDetectedAt {
				permDetectedAt = t
			}
		}
		switch {
		case t > tempAt+2*tempDur && t < permAt-timebase.Hour:
			before.Add(errV)
		case t > permDetectedAt+2*timebase.Hour:
			after.Add(errV)
		}
		sink.Append(e.Tb/timebase.Day, errV/1e-6, d)
	}); err != nil {
		return err
	}

	r.figure("temporary shift at", tempAt, Seconds)
	r.figure("temporary shift lasts", tempDur, Seconds)
	r.figure("permanent shift at", permAt, Seconds)
	for i, at := range detections {
		r.figure(fmt.Sprintf("detection %d at", i+1), at, Seconds)
	}
	r.equals("temporary shift (<Ts) never detected: detections before the permanent shift",
		float64(earlyDetections), 0, Count)
	r.within("permanent shift detected within ~1.5·Ts: delay", permDetectedAt-permAt, 0, 1.5*cfg.ShiftWindow, Seconds)

	// The jump is ≈ Δshift/2 (asymmetry change), directed negative since
	// the forward minimum grew.
	pre, post := r.errFigures("pre-shift", Seconds, before), r.errFigures("post-detection", Seconds, after)
	jump := post.P50 - pre.P50
	r.within("post-shift jump ≈ −Δshift/2", jump, -650e-6, -250e-6, Seconds)
	return nil
}

// runFig11d regenerates Figure 11d: a natural-style downward level shift
// occurring equally in both directions (Δ unchanged) using ServerExt.
// Detection and reaction are immediate; estimation quality is unchanged.
func runFig11d(r *Report, opts Options) error {
	dur := 2 * timebase.Day
	shiftAt := dur / 2
	delta := -0.18 * timebase.Millisecond
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerExt(), 64, dur, opts.seed())
	sc.Servers[0].Forward.Shifts = []netem.Shift{{At: shiftAt, Delta: delta}}
	sc.Servers[0].Backward.Shifts = []netem.Shift{{At: shiftAt, Delta: delta}}

	sink := r.series("series", "tb_day", "offset_err_us", "rtt_hat_ms")
	upward := 0
	// r̂ must absorb the 0.36 ms total downward move promptly.
	rHatAfter, haveRHat := 0.0, false
	before, after := stats.NewErrFold(), stats.NewErrFold()
	settle := math.Min(3*timebase.Hour, shiftAt/2)
	afterFrom := shiftAt + math.Min(timebase.Hour, (dur-shiftAt)/4)
	if _, err := streamRun(sc, defaultCfg(64), func(e sim.Exchange, res core.Result) {
		errV := offsetErrOf(res, e)
		t := e.TrueTf
		if res.UpwardShiftDetected {
			upward++
		}
		if !haveRHat && t > shiftAt+2*timebase.Hour {
			rHatAfter, haveRHat = res.RTTHat, true
		}
		switch {
		case t > settle && t < shiftAt:
			before.Add(errV)
		case t > afterFrom:
			after.Add(errV)
		}
		sink.Append(e.Tb/timebase.Day, errV/1e-6, res.RTTHat/1e-3)
	}); err != nil {
		return err
	}

	wantRTT := sc.Servers[0].MinRTT() + 2*delta
	r.figure("r̂ after shift", rHatAfter, Seconds)
	r.figure("new minimum RTT", wantRTT, Seconds)
	pre, post := r.errFigures("pre-shift", Seconds, before), r.errFigures("post-shift", Seconds, after)
	shiftOfMedian := post.P50 - pre.P50
	r.figure("median error moved by", shiftOfMedian, Seconds)

	r.equals("no upward detection for a downward shift", float64(upward), 0, Count)
	r.atMost("r̂ absorbs the shift promptly: |r̂ − new min|", math.Abs(rHatAfter-wantRTT), 100e-6, Seconds)
	r.atMost("no observable change in estimation quality: |median move|", math.Abs(shiftOfMedian), 120e-6, Seconds)
	return nil
}

// runFig12 regenerates Figure 12: offset error distribution over a
// 3-month run at the standard polling periods 64 and 256, reported as
// the 99%-coverage histogram with median and IQR. Two streaming passes
// per polling period: quantiles first (the histogram range is the 99%
// coverage interval, known only after a full pass), then the identical
// stream again to fill the fixed bins.
func runFig12(r *Report, opts Options) error {
	dur := 13 * timebase.Week
	r.figure("trace span", dur, Seconds)
	var iqrs [2]float64 // per polling period, in order
	for i, poll := range []float64{64, 256} {
		sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), poll, dur, opts.seed())
		// The paper's 3-month record includes two collection gaps.
		sc.Gaps = []sim.Gap{
			{From: 20 * timebase.Day, To: 20*timebase.Day + 1.5*timebase.Hour},
			{From: 45 * timebase.Day, To: 48.8 * timebase.Day},
		}
		// Pass 1: the error fold, whose 0.5/99.5 levels are the
		// histogram's range.
		errs := stats.NewErrFold()
		if _, err := streamRun(sc, defaultCfg(poll), func(e sim.Exchange, res core.Result) {
			if e.TrueTf > 3*timebase.Hour {
				errs.Add(offsetErrOf(res, e))
			}
		}); err != nil {
			return err
		}
		lo, hi := errs.Quantile(0.005), errs.Quantile(0.995)

		// Pass 2: fill the histogram over the now-known range.
		hist, err := stats.NewHistogram(nil, lo, hi+1e-12, 40)
		if err != nil {
			return err
		}
		if _, err := streamRun(sc, defaultCfg(poll), func(e sim.Exchange, res core.Result) {
			if e.TrueTf > 3*timebase.Hour {
				hist.Add(offsetErrOf(res, e))
			}
		}); err != nil {
			return err
		}
		tab := r.table(fmt.Sprintf("hist_poll%.0f", poll), "offset_err_us", "fraction")
		for i := range hist.Counts {
			tab.Append(hist.BinCenter(i)/1e-6, hist.Fraction(i))
		}
		r.figure(fmt.Sprintf("poll %.0f p0.5", poll), lo, Seconds)
		r.figure(fmt.Sprintf("poll %.0f p99.5", poll), hi, Seconds)
		s := r.errFigures(fmt.Sprintf("poll %.0f", poll), Seconds, errs)
		iqrs[i] = s.IQR()

		r.within(fmt.Sprintf("poll %.0f median at tens-of-µs (paper: −31/−33µs)", poll), s.P50, -100e-6, 0, Seconds)
		r.atMost(fmt.Sprintf("poll %.0f IQR small (paper: 15/24µs)", poll), iqrs[i], 80e-6, Seconds)
	}
	r.atMost("performance does not change greatly with polling rate: IQR(256)/IQR(64)",
		iqrs[1]/iqrs[0], 3, Ratio)
	return nil
}

// runBaseline runs the SW-NTP discipline on the same traces as the core
// engine: the implicit comparison of the whole paper. The TSC-NTP clock
// must win by a large factor in steady state and, unlike SW-NTP, must
// not reset on a large server fault. Both estimators consume the same
// stream in one pass of the engine harness, SW-NTP riding in its
// callback — each estimator's state depends only on its own inputs.
func runBaseline(r *Report, opts Options) error {
	dur := timebase.Week
	faultAt := dur * 0.75
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 64, dur, opts.seed())
	// The fault must span enough polls to pass the SW-NTP clock filter's
	// minimum-delay selection (~8 polls between applied samples).
	sc.Servers[0].Server.Faults = []netem.FaultWindow{
		{From: faultAt, To: faultAt + 45*timebase.Minute, Offset: 150 * timebase.Millisecond},
	}

	sw, err := swntp.New(swntp.DefaultConfig(1.0/548655270, 64))
	if err != nil {
		return err
	}
	sink := r.series("comparison", "tb_day", "swntp_err_us", "tsc_err_us")

	swErrs, coreErrs := stats.NewErrFold(), stats.NewErrFold()
	if _, err := streamRun(sc, defaultCfg(64), func(e sim.Exchange, res core.Result) {
		sw.ProcessExchange(e.Ta, e.Tf, e.Tb, e.Te)
		swErr := sw.Read(e.Tf) - e.Tg
		coreErr := offsetErrOf(res, e)
		if e.TrueTf > 3*timebase.Hour {
			swErrs.Add(swErr)
			coreErrs.Add(coreErr)
		}
		sink.Append(e.Tb/timebase.Day, swErr/1e-6, coreErr/1e-6)
	}); err != nil {
		return err
	}
	swS, coreS := r.errFigures("SW-NTP", Seconds, swErrs), r.errFigures("TSC-NTP", Seconds, coreErrs)
	swMed, coreMed := swS.AbsP50, coreS.AbsP50
	swWorst, coreWorst := swS.AbsMax, coreS.AbsMax

	// The paper's criticism of SW-NTP is reliability, not median-case
	// accuracy on a quiet path: errors "well in excess of RTTs in
	// practice" and occasional large resets.
	r.atLeast("TSC-NTP at least as accurate: median |err| SW-NTP/TSC-NTP", swMed/coreMed, 1, Ratio)
	r.atLeast("TSC-NTP crushes SW-NTP worst case (fault contained): worst |err| SW-NTP/TSC-NTP",
		swWorst/coreWorst, 10, Ratio)
	r.atLeast("SW-NTP resets on the 150 ms fault (steps)", float64(sw.Steps()), 2, Count)
	// Core containment on the same event.
	r.atMost("TSC-NTP contains the same fault without reset: max |err|", coreWorst, 4*timebase.Millisecond, Seconds)
	return nil
}
