package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timebase"
)

// runChaos drives the full robustness stack through a scheduled
// multi-day fault campaign — the degradation ladder's acceptance test.
// One host polls three statistically identical stratum-1 servers while
// the fault schedule walks through the failure modes a real deployment
// meets:
//
//   - a network partition cuts two of the three servers: the combined
//     clock must drop to DEGRADED (quorum lost) while tracking the
//     surviving server, then recover to SYNCED when the partition
//     heals;
//   - a total upstream outage blackholes every server: the clock must
//     enter HOLDOVER, coast on the frozen p̂_l with its error inside
//     the advertised ErrScale + DriftBound·age envelope for the whole
//     outage, and re-synchronize afterwards without a restart;
//   - one server dies and comes back permanently wrong by 2 ms: the
//     selection stage must evict the returned falseticker while the
//     ladder keeps reporting SYNCED off the two good servers.
//
// Throughout, the combined clock must never read UNSYNCED once it has
// first synchronized.
func runChaos(r *Report, opts Options) error {
	const poll = 16.0
	dur := 2 * timebase.Day

	partFrom, partTo := 0.20*dur, 0.28*dur
	outFrom, outTo := 0.45*dur, 0.55*dur
	deathAt, deathFor := 0.70*dur, 0.05*dur
	const stepAfter = 2 * timebase.Millisecond

	servers := []sim.ServerSpec{sim.ServerInt(), sim.ServerInt(), sim.ServerInt()}
	sc := sim.NewMultiScenario(sim.MachineRoom, servers, poll, dur, opts.seed())
	sc.AddPartition([]int{1, 2}, partFrom, partTo)
	sc.AddTotalOutage(outFrom, outTo)
	sc.AddServerDeathRestart(1, deathAt, deathFor, stepAfter)

	st, err := sim.NewMultiStream(sc)
	if err != nil {
		return err
	}

	const (
		holdoverAfter = 64.0 // read-time staleness cap for this run
		staleAfter    = 8    // the ensemble's polls without an answer before a vote is lost
	)
	cfg := ensemble.Config{
		Engines:       []core.Config{defaultCfg(poll), defaultCfg(poll), defaultCfg(poll)},
		HoldoverAfter: holdoverAfter,
		UnsyncedAfter: 2 * dur, // never reached in this run
	}

	series := r.series("series", "t_day", "state", "err_us", "bound_us", "voting")

	// Grid sampling between exchanges: the clock's health as downstream
	// readers see it, including through the outage when no exchange
	// arrives to move the writer.
	const gridStep = 32.0
	osc := st.Osc()
	var (
		gridT = gridStep

		syncedPubs      int // exchanges that published SYNCED
		unsyncedAfterUp int
		holdoverPts     int
		holdoverBreaks  int
		worstBoundRatio float64
		degradedPts     int
		degradedWrong   int
		syncedBetween   int // SYNCED grid points between partition and outage

		preFault = stats.NewErrFold()
		tailErrs = stats.NewErrFold()

		outRecoverAt = math.Inf(1)
	)
	// Lags before a window's expected state is asserted: staleness must
	// be noticed (staleLag) and the readout must age past the holdover
	// cap (holdGrace).
	staleLag := staleAfter*poll + 2*poll
	holdGrace := holdoverAfter + 2*poll

	sample := func(t float64, ro *ensemble.Readout) {
		T := osc.ReadTSC(t)
		state := ro.State(T)
		errT := clockErr(ro, T, t)
		h := ro.Health
		bound := h.ErrScale + h.DriftBound*ro.Age(T)

		if syncedPubs > 0 && state == ensemble.StateUnsynced {
			unsyncedAfterUp++
		}
		switch {
		case t >= outFrom+holdGrace && t < outTo:
			holdoverPts++
			if state != ensemble.StateHoldover {
				holdoverBreaks++
			}
			if bound > 0 {
				if ratio := math.Abs(errT) / bound; ratio > worstBoundRatio {
					worstBoundRatio = ratio
				}
			}
		case t >= partFrom+staleLag && t < partTo:
			degradedPts++
			if state != ensemble.StateDegraded {
				degradedWrong++
			}
		case t >= partTo+staleLag && t < outFrom && state == ensemble.StateSynced:
			syncedBetween++
		}
		if t >= 0.15*dur && t < partFrom {
			preFault.Add(errT)
		}
		if t >= deathAt+deathFor+0.05*dur {
			tailErrs.Add(errT)
		}
		series.Append(t/timebase.Day, float64(state), errT/1e-6, bound/1e-6, float64(ro.VotingCount))
	}

	minWeight1 := math.Inf(1)
	if _, err := ensembleFeed(st, cfg, func(s ensembleStep) {
		// The grid points since the last exchange saw the readout that
		// was in force then.
		for ; gridT < s.TrueTf; gridT += gridStep {
			sample(gridT, s.Prev)
		}
		ro := s.Readout
		if ro.BaseState == ensemble.StateSynced {
			syncedPubs++
		}
		if s.TrueTf >= outTo && s.TrueTf < outRecoverAt && ro.State(s.Tf) == ensemble.StateSynced {
			outRecoverAt = s.TrueTf
		}
		if s.TrueTf > deathAt+deathFor {
			if w := ro.Servers[1].Weight; w < minWeight1 {
				minWeight1 = w
			}
		}
	}); err != nil {
		return err
	}

	recoverTime := outRecoverAt - outTo

	r.figure("partition of servers 1,2 from", partFrom, Seconds)
	r.figure("partition of servers 1,2 to", partTo, Seconds)
	r.figure("total outage from", outFrom, Seconds)
	r.figure("total outage to", outTo, Seconds)
	r.figure("server 1 dead from", deathAt, Seconds)
	r.figure("server 1 dead to", deathAt+deathFor, Seconds)
	r.figure("server 1 step after return", stepAfter, Seconds)
	r.figure("holdover grid points", float64(holdoverPts), Count)
	preMed := r.errFigures("pre-fault", Seconds, preFault).AbsP50
	tailMed := r.errFigures("post-falseticker tail", Seconds, tailErrs).AbsP50

	r.equals("total outage lands in HOLDOVER: grid points in the outage window",
		float64(holdoverPts-holdoverBreaks)/float64(holdoverPts), 1, Share)
	r.atMost("holdover error inside advertised envelope: worst |err|/(ErrScale + DriftBound·age)",
		worstBoundRatio, 1, Ratio)
	r.above("holdover envelope is advertised (worst ratio positive)", worstBoundRatio, 0, Ratio)
	r.equals("partition degrades without killing the clock: grid points DEGRADED",
		float64(degradedPts-degradedWrong)/float64(degradedPts), 1, Share)
	r.atLeast("SYNCED again between partition and outage (grid points)", float64(syncedBetween), 1, Count)
	r.atMost("re-syncs after the outage without restart", recoverTime, 10*poll, Seconds)
	r.below("returned falseticker outvoted: min weight after return", minWeight1, 0.20, Share)
	r.atMost("returned falseticker outvoted: tail median/pre-fault", tailMed/preMed, 2, Ratio)
	r.atLeast("synchronizes (exchanges publishing SYNCED)", float64(syncedPubs), 1, Count)
	r.equals("never UNSYNCED once synchronized: grid points UNSYNCED", float64(unsyncedAfterUp), 0, Count)
	return nil
}
