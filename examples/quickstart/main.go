// Quickstart: calibrate a TSC-NTP clock on a simulated host-server
// environment and watch rate and offset converge.
//
// The setup is the paper's "MR-Int" workhorse: a machine-room host
// polling an organization-internal stratum-1 server every 16 s. The
// program feeds NTP exchanges from one simulated day to the public
// tscclock API and prints the synchronization state as it evolves. At
// 23 h + 120 s it reads both clocks (difference and absolute) with the
// state it has by then, as a live reader would, and compares them
// against the simulation's ground truth.
package main

import (
	"fmt"
	"log"
	"math"

	tscclock "repro"
	"repro/internal/sim"
	"repro/internal/timebase"
)

func main() {
	// One day of simulated exchanges: machine room, ServerInt, 16 s.
	scenario := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 1)
	tr, err := sim.Generate(scenario)
	if err != nil {
		log.Fatal(err)
	}

	clock, err := tscclock.New(tscclock.Options{
		NominalPeriod: 1.0 / 548655270, // the CPU's advertised frequency
		PollPeriod:    16,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("calibrating against", scenario.Servers[0].Name,
		"(min RTT", timebase.FormatDuration(scenario.Servers[0].MinRTT()), ")")
	fmt.Printf("%-8s %-12s %-12s %-12s %-10s\n",
		"elapsed", "rate err", "offset est", "min RTT", "state")

	// The read instants: a 120 s interval ending an hour before the trace
	// does. Only the exchanges completed by then are fed.
	t1, t2 := 23*timebase.Hour, 23*timebase.Hour+120
	next := 60.0
	for _, e := range tr.Completed() {
		if e.TrueTf > t2 {
			break
		}
		st, err := clock.ProcessNTPExchange(e.Ta, e.Tf, e.Tb, e.Te)
		if err != nil {
			log.Fatal(err)
		}
		if e.TrueTf >= next {
			state := "tracking"
			if st.Warmup {
				state = "warmup"
			}
			rateErr := timebase.PPM(st.Period/tr.Osc.MeanPeriod() - 1)
			fmt.Printf("%-8s %+9.4fppm %-12s %-12s %-10s\n",
				timebase.FormatDuration(e.TrueTf), rateErr,
				timebase.FormatDuration(st.Offset),
				timebase.FormatDuration(st.MinRTT), state)
			next *= 4
		}
	}

	// Read the clocks and compare with ground truth.
	c1, c2 := tr.Osc.ReadTSC(t1), tr.Osc.ReadTSC(t2)

	span := clock.Between(c1, c2)
	fmt.Printf("\ndifference clock: 120 s interval measured as %.9f s (error %s)\n",
		span, timebase.FormatDuration(span-(t2-t1)))

	abs := clock.AbsoluteTime(c2)
	fmt.Printf("absolute clock:   true time %.6f read as %.6f (error %s)\n",
		t2, abs, timebase.FormatDuration(abs-t2))

	if math.Abs(abs-t2) > timebase.Millisecond {
		log.Fatal("absolute clock failed to converge")
	}
	fmt.Println("\nsynchronized: rate to ~0.02 PPM, offset to tens of µs, using NTP only")
}
