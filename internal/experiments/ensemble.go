package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/timebase"
	"repro/internal/trace"
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
func runEnsemble(opts Options) (*Report, error) {
	r := newReport("ensemble", Title("ensemble"))
	dur := opts.scale(2 * timebase.Day)
	faultAt := 0.4 * dur
	const faultOff = 1.5 * timebase.Millisecond
	const faulty = 2 // index of the faulty server

	servers := []sim.ServerSpec{sim.ServerInt(), sim.ServerInt(), sim.ServerInt()}
	servers[faulty].Server.Faults = []netem.FaultWindow{
		{From: faultAt, To: dur + 1, Offset: faultOff},
	}
	sc := sim.NewMultiScenario(sim.MachineRoom, servers, 16, dur, opts.seed())
	tr, err := sim.GenerateMulti(sc)
	if err != nil {
		return nil, err
	}

	// Single-server references: the same engine configuration fed only
	// one server's exchanges (what a Clock pointed at it would see).
	single := func(k int) ([]float64, []sim.Exchange, error) {
		s, err := core.NewSync(defaultCfg(16))
		if err != nil {
			return nil, nil, err
		}
		ex := tr.CompletedFor(k)
		errs := make([]float64, len(ex))
		for i, e := range ex {
			res, err := s.Process(core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te})
			if err != nil {
				return nil, nil, fmt.Errorf("server %d seq %d: %w", k, e.Seq, err)
			}
			errs[i] = float64(e.Tf)*res.ClockP + res.ClockC - res.ThetaHat - e.Tg
		}
		return errs, ex, nil
	}
	goodErrs, goodEx, err := single(0)
	if err != nil {
		return nil, err
	}
	faultyErrs, faultyEx, err := single(faulty)
	if err != nil {
		return nil, err
	}

	// The ensemble over all three, fed in emission order.
	cfgs := []core.Config{defaultCfg(16), defaultCfg(16), defaultCfg(16)}
	ens, err := ensemble.New(ensemble.Config{Engines: cfgs})
	if err != nil {
		return nil, err
	}
	all := tr.Completed()
	ensErrs := make([]float64, len(all))
	minFaultyWeight := math.Inf(1)
	tab := trace.NewTable("t_day", "ens_err_us", "faulty_weight")
	for i, e := range all {
		if _, err := ens.Process(e.Server, core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te}); err != nil {
			return nil, fmt.Errorf("ensemble server %d seq %d: %w", e.Server, e.Seq, err)
		}
		ro := ens.Readout()
		ensErrs[i] = ro.AbsoluteTime(e.Tf) - e.Tg
		w := ro.Servers[faulty].Weight
		if e.TrueTf > faultAt && w < minFaultyWeight {
			minFaultyWeight = w
		}
		if err := tab.Append(e.TrueTf/timebase.Day, ensErrs[i]/1e-6, w); err != nil {
			return nil, err
		}
	}
	if err := r.save(opts, "series", tab); err != nil {
		return nil, err
	}

	// Score over the settled tail (last quarter): well past the fault
	// onset AND past the single faulty clock's sanity lock-out window,
	// so "diverged" means diverged for good, not merely briefly.
	tailFrom := 0.75 * dur
	tail := func(errs []float64, at func(int) float64) []float64 {
		var out []float64
		for i := range errs {
			if at(i) > tailFrom {
				out = append(out, errs[i])
			}
		}
		return out
	}
	goodMed := medianAbs(tail(goodErrs, func(i int) float64 { return goodEx[i].TrueTf }))
	faultyMed := medianAbs(tail(faultyErrs, func(i int) float64 { return faultyEx[i].TrueTf }))
	ensMed := medianAbs(tail(ensErrs, func(i int) float64 { return all[i].TrueTf }))
	agreement := ens.Readout().Agreement(all[len(all)-1].Tf)

	r.addLine("fault: server %d off by %s from %.2f days; tail medians |err|: good single %s, faulty single %s, ensemble %s",
		faulty, timebase.FormatDuration(faultOff), faultAt/timebase.Day,
		timebase.FormatDuration(goodMed), timebase.FormatDuration(faultyMed),
		timebase.FormatDuration(ensMed))
	r.addLine("faulty server: min weight after onset %.3f (nominal 0.333); final agreement %d/3",
		minFaultyWeight, agreement)

	r.addCheck("single clock on the faulty server diverges", "≥10× good baseline",
		fmt.Sprintf("%.0fx", faultyMed/goodMed), faultyMed >= 10*goodMed)
	r.addCheck("ensemble outvotes the faulty server", "tail median ≤ 2× good baseline",
		fmt.Sprintf("%.2fx", ensMed/goodMed), ensMed <= 2*goodMed)
	r.addCheck("trust scoring dents the faulty server's weight", "min < 0.20 after onset",
		fmt.Sprintf("%.3f", minFaultyWeight), minFaultyWeight < 0.20)
	r.addCheck("faulty server excluded from final agreement", "2 of 3",
		fmt.Sprint(agreement), agreement == 2)
	return r, nil
}
