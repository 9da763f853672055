package tscclock_test

import (
	"fmt"
	"log"

	tscclock "repro"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// ExampleClock calibrates a clock from simulated NTP exchanges and reads
// both clocks: the difference clock for intervals, the absolute clock
// for timestamps.
func ExampleClock() {
	// Six hours of exchanges against the paper's ServerInt environment.
	tr, err := sim.Generate(sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, 6*timebase.Hour, 1))
	if err != nil {
		log.Fatal(err)
	}

	clock, err := tscclock.New(tscclock.Options{
		NominalPeriod: 1.0 / 548655270, // advertised counter frequency
		PollPeriod:    16,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range tr.Completed() {
		if _, err := clock.ProcessNTPExchange(e.Ta, e.Tf, e.Tb, e.Te); err != nil {
			log.Fatal(err)
		}
	}

	// Measure a 10-second interval with the difference clock.
	c1 := tr.Osc.ReadTSC(5 * timebase.Hour)
	c2 := tr.Osc.ReadTSC(5*timebase.Hour + 10)
	span := clock.Between(c1, c2)
	fmt.Printf("10 s interval measured to within %v µs\n", int(1e6*(span-10)+0.5))

	// Read absolute time; true value is 5 h exactly.
	abs := clock.AbsoluteTime(c1)
	fmt.Printf("absolute error under 100 µs: %v\n", abs-5*timebase.Hour < 100e-6 && abs-5*timebase.Hour > -100e-6)
	// Output:
	// 10 s interval measured to within 0 µs
	// absolute error under 100 µs: true
}

// ExampleNewPoller shows the controlled-emission policy: a quarter of
// the floor during warmup, exponential backoff from the floor once
// calibrated, reset on disturbance.
func ExampleNewPoller() {
	p := tscclock.NewPoller(0, 0) // defaults: 16 s .. 1024 s
	fmt.Println(p.Observe(tscclock.Status{Warmup: true}, nil))
	fmt.Println(p.Observe(tscclock.Status{}, nil))
	fmt.Println(p.Observe(tscclock.Status{}, nil))
	fmt.Println(p.Observe(tscclock.Status{UpwardShiftDetected: true}, nil))
	// Output:
	// 4s
	// 32s
	// 1m4s
	// 16s
}
