// Ensemble: calibrate a multi-server clock against three simulated
// stratum-1 servers, break one of them, and watch the ensemble outvote
// it.
//
// One host (one oscillator) polls three ServerInt-class servers on
// staggered 16 s schedules. Halfway through the day, server 2's clock
// goes wrong by 1.5 ms and stays wrong. A single-server clock pointed
// at server 2 eventually swallows the error (its sanity envelope must
// reopen, or real route changes would lock it out forever); the
// ensemble never follows, because the interval-intersection selection
// stage classifies the faulty server a falseticker — zero vote — and
// the weighted median runs over the two healthy servers that agree.
package main

import (
	"fmt"
	"log"
	"math"

	tscclock "repro"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/timebase"
)

func main() {
	const faulty = 2
	faultAt := 12 * timebase.Hour

	servers := []sim.ServerSpec{sim.ServerInt(), sim.ServerInt(), sim.ServerInt()}
	servers[faulty].Server.Faults = []netem.FaultWindow{
		{From: faultAt, To: timebase.Day + 1, Offset: 1.5 * timebase.Millisecond},
	}
	tr, err := sim.GenerateMulti(sim.NewMultiScenario(sim.MachineRoom, servers, 16, timebase.Day, 1))
	if err != nil {
		log.Fatal(err)
	}

	ens, err := tscclock.NewEnsemble(tscclock.EnsembleOptions{
		Servers: 3,
		Clock: tscclock.Options{
			NominalPeriod: 1.0 / 548655270,
			PollPeriod:    16,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("three %s-class servers; server %d faulty (+1.5 ms) from %s\n\n",
		servers[0].Name, faulty, timebase.FormatDuration(faultAt))
	fmt.Printf("%-8s %-12s %-22s %-10s %s\n", "elapsed", "ens err", "weights", "agreement", "falsetickers")

	next := timebase.Hour
	var lastErr float64
	for _, e := range tr.Completed() {
		st, err := ens.ProcessNTPExchange(e.Server, e.Ta, e.Tf, e.Tb, e.Te)
		if err != nil {
			log.Fatal(err)
		}
		lastErr = ens.AbsoluteTime(e.Tf) - e.Tg
		if e.TrueTf >= next {
			ro := st.Readout
			fmt.Printf("%-8s %-12s [%.2f %.2f %.2f]       %d/3        %d\n",
				timebase.FormatDuration(e.TrueTf), timebase.FormatDuration(lastErr),
				ro.Servers[0].Weight, ro.Servers[1].Weight, ro.Servers[2].Weight,
				ro.Agreement(e.Tf), ro.Falsetickers)
			next *= 2
		}
	}

	fmt.Printf("\nfinal combined clock error: %s (the faulty server is %s off)\n",
		timebase.FormatDuration(lastErr), timebase.FormatDuration(1.5*timebase.Millisecond))
	if math.Abs(lastErr) > 200*timebase.Microsecond {
		log.Fatal("ensemble failed to contain the faulty server")
	}
	fmt.Println("outvoted: the combined clock never followed the faulty majority-of-one")
}
