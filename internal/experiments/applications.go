package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/netem"
	"repro/internal/pps"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timebase"
)

// The two applications the paper argues for, each run as a one-server
// ensemble (the engine bit for bit) over the harness's loop, with its
// instants read from the stream's oscillator between exchanges: an
// instant before an exchange's Tf is read with the readout in force
// then (ensembleStep.Prev), never with a later state looking back.

// runOWD is the motivating workload of the paper's introduction:
// one-way delay measured by a commodity PC without GPS hardware. A
// probe stream with ideal (GPS-stamped) departures crosses a noisy path
// to a host whose clock calibrates against a nearby stratum-1 server.
// The host stamps each arrival with its raw counter and converts it
// with its absolute clock, so the delay error is that clock's error at
// the arrival; the delay variation between consecutive probes is a pure
// interval, measured with the difference clock. The absolute clock must
// put the median delay error under 100 µs and the difference clock the
// median variation error under 1 µs.
func runOWD(r *Report, opts Options) error {
	const (
		poll    = 16.0
		probes  = 2000
		spacing = 50 * timebase.Millisecond // 20 probes/s
	)
	seed := opts.seed()
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerLoc(), poll, 12*timebase.Hour, seed)
	path, err := netem.NewPath(netem.PathConfig{
		MinDelay:            4200 * timebase.Microsecond,
		BaseQueueMean:       60 * timebase.Microsecond,
		DiurnalAmplitude:    0.3,
		EpisodeMeanGap:      20 * timebase.Minute,
		EpisodeMeanDuration: 2 * timebase.Minute,
		EpisodeScale:        1.2 * timebase.Millisecond,
		EpisodeShape:        1.6,
	}, rng.New(seed+92))
	if err != nil {
		return err
	}
	// The probes cross the path late in the run, with the clock settled.
	arrive := make([]float64, probes)
	for i := range arrive {
		depart := 11*timebase.Hour + float64(i)*spacing
		arrive[i] = depart + path.Delay(depart)
	}

	st, err := sim.NewMultiStream(sc)
	if err != nil {
		return err
	}
	osc := st.Osc()
	delayErrs, dvErrs := stats.NewErrFold(), stats.NewErrFold()
	next := 0
	var prevT uint64
	read := func(ro *ensemble.Readout) {
		T := osc.ReadTSC(arrive[next])
		delayErrs.Add(clockErr(ro, T, arrive[next]))
		if next > 0 {
			dvErrs.Add(ro.DifferenceSpan(prevT, T) - (arrive[next] - arrive[next-1]))
		}
		prevT = T
		next++
	}
	cfg := ensemble.Config{Engines: []core.Config{defaultCfg(poll)}}
	final, err := ensembleFeed(st, cfg, func(s ensembleStep) {
		for next < probes && arrive[next] < s.TrueTf {
			read(s.Prev)
		}
	})
	if err != nil {
		return err
	}
	for next < probes {
		read(final)
	}

	d := r.errFigures("owd delay", Seconds, delayErrs)
	dv := r.errFigures("owd dv", Seconds, dvErrs)
	r.below("one-way delay |err p50| (absolute clock)", math.Abs(d.P50), 100*timebase.Microsecond, Seconds)
	r.below("delay variation |err p50| (diff. clock)", math.Abs(dv.P50), timebase.Microsecond, Seconds)
	return nil
}

// runTSCGPS is the paper's conclusion: a GPS-equipped measurement box
// runs the same counter-based clock calibrated from its local
// pulse-per-second reference (internal/pps) instead of NTP. Both clocks
// run on one host and one oscillator, the TSC-NTP clock against the
// organization-internal server, the TSC-GPS clock from a receiver with
// 100 ns pulse jitter captured through the same interrupt-latency model
// as NTP receive stamps. Over the run's final 12 minutes, each clock is
// read every 10 s with the state it has by then; the local reference
// must give the smaller median error.
func runTSCGPS(r *Report, opts Options) error {
	const (
		poll     = 16.0
		evalFrom = 1.8 * timebase.Hour
		evalTo   = 1.99 * timebase.Hour
		evalStep = 10.0
	)
	seed := opts.seed()
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), poll, 2*timebase.Hour, seed)
	st, err := sim.NewMultiStream(sc)
	if err != nil {
		return err
	}
	osc := st.Osc()
	src, err := pps.NewSource(osc, netem.DefaultHostStamp(), 100*timebase.Nanosecond, seed+1)
	if err != nil {
		return err
	}
	gps, err := pps.NewSync(pps.DefaultConfig(1 / sc.Oscillator.NominalHz))
	if err != nil {
		return err
	}

	ntpErrs, gpsErrs := stats.NewErrFold(), stats.NewErrFold()
	counter, second := src.Pulse()
	var ppsErr error
	t := evalFrom
	read := func(ro *ensemble.Readout) {
		// Every pulse marking a second before t has been captured by t.
		for ; second < t; counter, second = src.Pulse() {
			if _, err := gps.ProcessPulse(counter, second); err != nil && ppsErr == nil {
				ppsErr = fmt.Errorf("experiments: pulse %v: %w", second, err)
			}
		}
		T := osc.ReadTSC(t)
		ntpErrs.Add(clockErr(ro, T, t))
		gpsErrs.Add(gps.AbsoluteTime(T) - t)
		t += evalStep
	}
	cfg := ensemble.Config{Engines: []core.Config{defaultCfg(poll)}}
	final, err := ensembleFeed(st, cfg, func(s ensembleStep) {
		for t < evalTo && t < s.TrueTf {
			read(s.Prev)
		}
	})
	if err != nil {
		return err
	}
	for t < evalTo {
		read(final)
	}
	if ppsErr != nil {
		return ppsErr
	}

	g := r.errFigures("tscgps gps", Seconds, gpsErrs)
	n := r.errFigures("tscgps ntp", Seconds, ntpErrs)
	r.figure("tscgps ntp/gps |err| p50", n.AbsP50/g.AbsP50, Ratio)
	r.below("TSC-GPS |err| p50 below TSC-NTP's", g.AbsP50, n.AbsP50, Seconds)
	return nil
}
