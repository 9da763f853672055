package experiments

import (
	"math"

	"repro/internal/ensemble"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// runSelect demonstrates why the ensemble's interval-intersection
// selection stage exists: the trust-weighted median alone has a
// *weight*-based breakdown point, so two colluding servers on clean
// low-jitter paths — which the quality-driven trust scorer rewards with
// more than half the total weight — can drag the combined clock by
// their full lie without ever tripping a single-path quality signal.
// The selection sweep is *count*-based: each server asserts a
// correctness interval, only the largest mutually-intersecting majority
// keeps its vote, and the colluding pair's intervals never reach the
// honest majority's. The same sweep yields the asymmetry diagnostic:
// each server's signed disagreement against the selected-set midpoint,
// which localizes the lie on the pair (and, for honest servers, the
// path-asymmetry error no single path can observe about itself,
// paper §2.3).
func runSelect(r *Report, opts Options) error {
	dur := opts.scale(2 * timebase.Day)
	const lie = 1.5 * timebase.Millisecond

	// The adversarial scenario and its all-good control: identical
	// scenario, identical draws, no lie.
	adv := sim.NewColludingScenario(sim.MachineRoom, lie, 16, dur, opts.seed())
	good := sim.NewColludingScenario(sim.MachineRoom, 0, 16, dur, opts.seed())
	nSrv := len(adv.Servers)
	tailFrom := 0.75 * dur

	goodMed, _, err := ensembleRun(good, ensemble.Config{}, tailFrom, nil)
	if err != nil {
		return err
	}
	// The median-only combiner on the adversarial trace; its errors are
	// kept for the series artifact below.
	var medErrs []float64
	medMed, _, err := ensembleRun(adv, ensemble.Config{DisableSelection: true}, tailFrom, func(s ensembleStep) {
		medErrs = append(medErrs, s.Err)
	})
	if err != nil {
		return err
	}

	// Selection on the same trace: the series artifact, exchange-aligned
	// with the median-only run (same trace, same completions), and the
	// tail-steady-state selection diagnostics.
	tab := r.table("series", "t_day", "sel_err_us", "med_err_us", "falsetickers", "colluder_w")
	var (
		tailSnaps int // snapshots in the tail window
		tailBoth  int // ... with both colluders excluded
		maxCollW  float64
	)
	selMed, last, err := ensembleRun(adv, ensemble.Config{}, tailFrom, func(s ensembleStep) {
		collW, both := 0.0, true
		for k := sim.ColludingHonest; k < nSrv; k++ { // the colluders
			collW += s.Readout.Servers[k].Weight
			if s.Readout.Servers[k].Selected {
				both = false
			}
		}
		if s.TrueTf > tailFrom {
			tailSnaps++
			if collW > maxCollW {
				maxCollW = collW
			}
			if both {
				tailBoth++
			}
		}
		tab.Append(s.TrueTf/timebase.Day, s.Err/1e-6, medErrs[tab.Len()]/1e-6,
			float64(s.Readout.Falsetickers), collW)
	})
	if err != nil {
		return err
	}

	// Final steady-state view of the selection run.
	worstHonestHint, minCollHint := 0.0, math.Inf(1)
	for k := 0; k < nSrv; k++ {
		h := math.Abs(last.Servers[k].AsymmetryHint)
		if k >= sim.ColludingHonest {
			if h < minCollHint {
				minCollHint = h
			}
		} else if h > worstHonestHint {
			worstHonestHint = h
		}
	}

	r.figure("servers", float64(nSrv), Count)
	r.figure("first colluding server", sim.ColludingHonest, Count)
	r.figure("last colluding server", float64(nSrv-1), Count)
	r.figure("colluders' lie", lie, Seconds)
	r.figure("tail median |err| all-good baseline", goodMed, Seconds)
	r.figure("tail median |err| selection", selMed, Seconds)
	r.figure("tail median |err| median-only", medMed, Seconds)
	r.figure("tail snapshots", float64(tailSnaps), Count)
	r.figure("tail snapshots excluding both colluders", float64(tailBoth), Count)
	r.figure("final falsetickers", float64(last.Falsetickers), Count)

	r.atMost("selection holds the all-good baseline: tail median selection/baseline", selMed/goodMed, 1.5, Ratio)
	r.atLeast("median-only combiner degrades: tail median median-only/baseline", medMed/goodMed, 5, Ratio)
	r.equals("colluders are falsetickers at steady state: tail snapshots excluding both",
		float64(tailBoth)/float64(tailSnaps), 1, Share)
	r.equals("falsetickers hold zero weight: max colluder weight", maxCollW, 0, Share)
	r.atLeast("asymmetry hint localizes the lie: smallest colluder hint ≥ lie/2", minCollHint, lie/2, Seconds)
	r.below("asymmetry hint localizes the lie: largest honest hint < lie/5", worstHonestHint, lie/5, Seconds)
	return nil
}
