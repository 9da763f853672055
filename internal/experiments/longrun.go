package experiments

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/allan"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/oscillator"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timebase"
)

// The longrun experiment is the streaming pipeline's reason to exist:
// the regime the paper's methodology actually targets — weeks of
// continuous operation — run end to end at constant memory. The
// scenario extends MR-Int with the long-horizon ingredients (a diurnal
// temperature drift cycle on the oscillator with day/night asymmetry
// and week-scale amplitude modulation, and week-scale congestion load
// regimes on both paths), streams every exchange through the default
// engine, and folds three products without ever materializing a
// series: a windowed five-number error series, an online Allan
// deviation of the error, and the full per-packet error series row-
// streamed to TSV when an output directory is configured.

// longRunDefaultDays is the trace length the acceptance criterion
// names; -days / Options.LongRunDays override it.
const longRunDefaultDays = 21.0

// longRunWindow is the reporting window of the error series.
const longRunWindow = 6 * timebase.Hour

// longRunClip winsorizes the Allan fold's input: the error series has a
// ~1-in-10⁵ single-packet mode (a deep congestion excursion the offset
// filter follows for one poll before recovering — present in the plain
// MR-Int scenario, not introduced by the long-horizon ingredients)
// whose square would otherwise dominate the deviation at every τ. The
// excursions are counted and checked separately; the fold characterizes
// the sustained error process, the robust-statistics stance the paper
// takes throughout.
const longRunClip = timebase.Millisecond

// NewLongRunScenario builds the long-horizon scenario: MR-Int at the
// given polling period plus the temperature cycle and load regimes.
// The regime dwell is 2.5 days, or a sixth of a run shorter than 15
// days (short -days runs, the 12-day memory test, the 1-day benchmark),
// so every run exercises at least a few regime switches. The memory
// benchmark and tests reach it through Run, so they measure exactly
// the pipeline the experiment runs.
func NewLongRunScenario(days, poll float64, seed uint64) sim.MultiScenario {
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), poll, days*timebase.Day, seed)
	sc.Name = fmt.Sprintf("MR-Int-longrun%.3gd", days)
	sc.Oscillator.Temp = oscillator.TempCycle{
		AmplitudePPM: 0.02, Phase: 1.3, Harmonic2: 0.35, WeeklyMod: 0.3,
	}
	dwell := math.Min(2.5*timebase.Day, sc.Duration/6)
	for _, p := range []*netem.PathConfig{&sc.Servers[0].Forward, &sc.Servers[0].Backward} {
		p.RegimeMeanDwell = dwell
		p.RegimeFactors = []float64{1, 2.2}
	}
	return sc
}

func runLongRun(r *Report, opts Options) error {
	days := opts.LongRunDays
	if days == 0 {
		days = longRunDefaultDays
	}
	const poll = 16.0
	dur := days * timebase.Day
	sc := NewLongRunScenario(days, poll, opts.seed())
	settle := 3 * timebase.Hour

	// Streamed per-packet error series: rows go to disk as they happen.
	sink := r.series("errors", "tb_day", "offset_err_us")

	// Online Allan fold of the settled offset error (the warmup
	// transient would dominate the squared differences), on the batch
	// grid capped at one day of averaging scale — the ring stays
	// ~2·5400 floats no matter how many weeks stream through.
	nUniform := int((dur - settle) / poll)
	grid, err := allan.CurveGrid(nUniform, 4)
	if err != nil {
		return err
	}
	maxM := int(timebase.Day / poll)
	for len(grid) > 0 && grid[len(grid)-1] > maxM {
		grid = grid[:len(grid)-1]
	}
	fold, err := allan.NewFold(poll, grid)
	if err != nil {
		return err
	}
	resampler, err := allan.NewResampler(poll, fold.Add)
	if err != nil {
		return err
	}

	// Windowed percentile series; each window's fold is merged into the
	// whole run's when it closes.
	winTab := r.table("windows", "window_end_day", "p01_us", "p25_us", "p50_us", "p75_us", "p99_us", "n")
	overall, win := stats.NewErrFold(), stats.NewErrFold()
	var winMedians []float64
	winEnd := settle + longRunWindow

	flushWindow := func(endDay float64) {
		if win.N() == 0 {
			return
		}
		s := win.Summary()
		winMedians = append(winMedians, s.P50)
		fiveNumRow(winTab, endDay, s, float64(win.N()))
		overall.Merge(win)
		win = stats.NewErrFold()
	}

	// Peak-heap watermark, sampled during the run: the number that must
	// stay flat as -days grows.
	var ms runtime.MemStats
	peakHeap := uint64(0)
	sampleHeap := func() {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peakHeap {
			peakHeap = ms.HeapAlloc
		}
	}
	sampleHeap()

	var last sim.Exchange
	var lastPHat float64
	count, excursions := 0, 0
	var pushErr error // the resampler's first, reported after the pass
	st, err := streamRun(sc, defaultCfg(poll), func(e sim.Exchange, res core.Result) {
		errV := offsetErrOf(res, e)
		sink.Append(e.Tb/timebase.Day, errV/1e-6)
		t := e.TrueTf
		if t > settle {
			clipped := errV
			if math.Abs(errV) > longRunClip {
				excursions++
				clipped = math.Copysign(longRunClip, errV)
			}
			if pushErr == nil {
				pushErr = resampler.Push(e.Tg, clipped)
			}
			for t > winEnd {
				flushWindow(winEnd / timebase.Day)
				winEnd += longRunWindow
			}
			win.Add(errV)
		}
		last = e
		lastPHat = res.PHat
		count++
		if count%8192 == 0 {
			sampleHeap()
		}
	})
	if err != nil {
		return err
	}
	if pushErr == nil {
		pushErr = resampler.Finish()
	}
	if pushErr != nil {
		return pushErr
	}
	flushWindow(last.TrueTf / timebase.Day)
	sampleHeap()

	pts := fold.Points()
	allanTab := r.table("allan", "tau_s", "allan_dev")
	for _, p := range pts {
		allanTab.Append(p.Tau, p.Deviation)
	}

	r.figure("trace span", dur, Seconds)
	r.figure("packets", float64(count), Count)
	r.figure("window", longRunWindow, Seconds)
	all := r.errFigures("overall", Seconds, overall)
	medLo, medHi := stats.MinMax(winMedians)
	r.figure("excursion threshold (clipped from the Allan fold)", longRunClip, Seconds)
	r.figure("single-packet excursions", float64(excursions), Count)

	// Shape checks: multi-week stability despite temperature cycles and
	// load regimes, and the constant-memory machinery actually engaged.
	wantWindows := int((dur - settle) / longRunWindow)
	r.atLeast("windowed series covers the run (windows)", float64(len(winMedians)), float64(wantWindows), Count)
	r.above("every window median in the −Δ/2 band: lowest", medLo, -120e-6, Seconds)
	r.below("every window median in the −Δ/2 band: highest", medHi, 20e-6, Seconds)
	r.atMost("median stable across regimes/weeks: spread", medHi-medLo, 80e-6, Seconds)
	r.atMost("overall p99 bounded through congestion regimes", all.P99, timebase.Millisecond, Seconds)
	r.atMost("single-packet excursions rare (share of packets)", float64(excursions)/float64(count), 0.0002, Share)

	dev1000 := devNear(pts, 1000)
	r.atMost("error Allan bounded at τ ≥ 1000s", dev1000, timebase.FromPPM(0.1), PPM)
	r.atMost("error Allan falls toward large τ (no drift regime): dev(τmax)/dev(1000s)",
		pts[len(pts)-1].Deviation/dev1000, 1, Ratio)

	r.PeakHeap = peakHeap

	trueP := st.Osc().MeanPeriod()
	rateErr := math.Abs(lastPHat/trueP - 1)
	r.atMost("rate estimate within hardware stability bound", rateErr, timebase.FromPPM(0.1), PPM)
	r.atMost("oscillator cache trimmed behind the emission front (steps)",
		float64(st.StampCacheLen()), 512, Count)
	return nil
}
