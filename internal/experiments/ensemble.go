package experiments

import (
	"math"

	"repro/internal/ensemble"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timebase"
)

// runEnsemble demonstrates the multi-server ensemble clock beyond the
// paper: one host polls three statistically identical stratum-1 servers
// (staggered schedules, shared oscillator), and partway through the
// trace one server's clock goes wrong by several milliseconds,
// permanently. A single-server clock pointed at the faulty server
// resists through its sanity check but — by design, to avoid lock-out
// (Section 6.1) — eventually swallows a persistent server error as the
// aged sanity envelope reopens. The ensemble never does: the weighted
// median follows the two servers that agree, and the faulty server's
// sanity events dent its combining weight while the trouble lasts.
func runEnsemble(r *Report, opts Options) error {
	dur := opts.scale(2 * timebase.Day)
	faultAt := 0.4 * dur
	const faultOff = 1.5 * timebase.Millisecond
	const faulty = 2 // index of the faulty server

	servers := []sim.ServerSpec{sim.ServerInt(), sim.ServerInt(), sim.ServerInt()}
	servers[faulty].Server.Faults = []netem.FaultWindow{
		{From: faultAt, To: dur + 1, Offset: faultOff},
	}
	sc := sim.NewMultiScenario(sim.MachineRoom, servers, 16, dur, opts.seed())

	// One pass. The single-server references ride along: each engine
	// inside the ensemble is exactly a clock pointed at its own server
	// (what a Clock fed only that server's exchanges would be), so the
	// good and the faulty single clocks are engines 0 and 2 scored by
	// the engine scorer. Everything is scored over the settled tail
	// (last quarter): well past the fault onset AND past the single
	// faulty clock's sanity lock-out window, so "diverged" means
	// diverged for good, not merely briefly.
	tailFrom := 0.75 * dur
	goodTail, faultyTail := stats.NewMedianAbs(), stats.NewMedianAbs()
	minFaultyWeight := math.Inf(1)
	var lastTf uint64
	tab := r.table("series", "t_day", "ens_err_us", "faulty_weight")
	ensMed, final, err := ensembleRun(sc, ensemble.Config{}, tailFrom, func(s ensembleStep) {
		w := s.Readout.Servers[faulty].Weight
		if s.TrueTf > faultAt && w < minFaultyWeight {
			minFaultyWeight = w
		}
		if s.TrueTf > tailFrom {
			switch s.Server {
			case 0:
				goodTail.Add(offsetErrOf(s.Res, s.Exchange))
			case faulty:
				faultyTail.Add(offsetErrOf(s.Res, s.Exchange))
			}
		}
		lastTf = s.Tf
		tab.Append(s.TrueTf/timebase.Day, s.Err/1e-6, w)
	})
	if err != nil {
		return err
	}
	goodMed, faultyMed := goodTail.Value(), faultyTail.Value()
	agreement := final.Agreement(lastTf)

	r.figure("faulty server", faulty, Count)
	r.figure("fault offset", faultOff, Seconds)
	r.figure("fault onset", faultAt, Seconds)
	r.figure("tail median |err| good single clock", goodMed, Seconds)
	r.figure("tail median |err| faulty single clock", faultyMed, Seconds)
	r.figure("tail median |err| ensemble", ensMed, Seconds)

	r.atLeast("single clock on the faulty server diverges: tail median faulty/good", faultyMed/goodMed, 10, Ratio)
	r.atMost("ensemble outvotes the faulty server: tail median ensemble/good", ensMed/goodMed, 2, Ratio)
	r.below("trust scoring dents the faulty server's weight: min after onset", minFaultyWeight, 0.20, Share)
	r.equals("faulty server excluded from final agreement (of 3)", float64(agreement), 2, Count)
	return nil
}
