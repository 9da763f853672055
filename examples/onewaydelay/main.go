// One-way delay measurement: the motivating workload of the paper's
// introduction (network measurement with commodity PCs, RIPE-NCC-style,
// without GPS hardware).
//
// Measuring one-way delay requires an *absolute* clock: the sender
// stamps departure with its clock, the receiver stamps arrival with its
// own, and any offset error lands directly in the measured delay. The
// paper's point is that the calibrated TSC-NTP absolute clock is
// accurate enough (tens of µs) for this, whereas time *differences*
// (inter-arrivals, jitter) should use the difference clock, which is
// better still.
//
// This example calibrates a receiver clock on a simulated environment,
// then measures the one-way delays of a synthetic probe stream crossing
// a noisy path, and compares against ground truth — separating the
// delay error (absolute clock) from the jitter error (difference clock).
// It exits non-zero unless the median one-way delay error is under
// 100µs and the median delay-variation error under 1µs.
package main

import (
	"fmt"
	"log"
	"math"

	tscclock "repro"
	"repro/internal/netem"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timebase"
)

func main() {
	// Calibrate the receiver's clock over half a day of NTP exchanges.
	scenario := sim.NewScenario(sim.MachineRoom, sim.ServerLoc(), 16, 12*timebase.Hour, 7)
	tr, err := sim.Generate(scenario)
	if err != nil {
		log.Fatal(err)
	}
	clock, err := tscclock.New(tscclock.Options{NominalPeriod: 1.0 / 548655270, PollPeriod: 16})
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range tr.Completed() {
		if _, err := clock.ProcessNTPExchange(e.Ta, e.Tf, e.Tb, e.Te); err != nil {
			log.Fatal(err)
		}
	}

	// A probe stream crosses an independent path to this receiver. The
	// sender is ideal (GPS-stamped departures); the receiver stamps
	// arrivals with its raw counter and converts with its clock.
	path, err := netem.NewPath(netem.PathConfig{
		MinDelay:            4200 * timebase.Microsecond,
		BaseQueueMean:       60 * timebase.Microsecond,
		DiurnalAmplitude:    0.3,
		EpisodeMeanGap:      20 * timebase.Minute,
		EpisodeMeanDuration: 2 * timebase.Minute,
		EpisodeScale:        1.2 * timebase.Millisecond,
		EpisodeShape:        1.6,
	}, rng.New(99))
	if err != nil {
		log.Fatal(err)
	}

	const probes = 2000
	var delayErrs, jitterErrs []float64
	base := 11 * timebase.Hour
	var prevTrue float64
	for i := 0; i < probes; i++ {
		depart := base + float64(i)*0.05 // 20 probes/s
		trueDelay := path.Delay(depart)
		arrive := depart + trueDelay

		counter := tr.Osc.ReadTSC(arrive)
		measuredArrival := clock.AbsoluteTime(counter)
		measuredDelay := measuredArrival - depart
		delayErrs = append(delayErrs, measuredDelay-trueDelay)

		// Delay variation between consecutive probes: a pure time
		// difference, measured with the difference clock.
		if i > 0 {
			prevCounter := tr.Osc.ReadTSC(prevTrue)
			dv := clock.Between(prevCounter, counter) - 0.05 // minus send spacing
			trueDV := arrive - prevTrue - 0.05
			jitterErrs = append(jitterErrs, dv-trueDV)
		}
		prevTrue = arrive
	}

	fmt.Printf("probes: %d over %s, true min delay %s\n",
		probes, timebase.FormatDuration(probes*0.05),
		timebase.FormatDuration(4200*timebase.Microsecond))
	delayMed, jitterMed := stats.Median(delayErrs), stats.Median(jitterErrs)
	fmt.Printf("one-way delay error (absolute clock):  median %s, IQR %s\n",
		timebase.FormatDuration(delayMed), timebase.FormatDuration(stats.IQR(delayErrs)))
	fmt.Printf("delay-variation error (difference clock): median %s, IQR %s\n",
		timebase.FormatDuration(jitterMed), timebase.FormatDuration(stats.IQR(jitterErrs)))
	if math.Abs(delayMed) >= 100*timebase.Microsecond || math.Abs(jitterMed) >= timebase.Microsecond {
		log.Fatal("demonstration failed: want |median| one-way delay error < 100µs and delay-variation error < 1µs")
	}
	fmt.Println("\nthe absolute clock puts one-way delays within tens of µs;")
	fmt.Println("the difference clock resolves jitter at sub-µs level — no GPS needed")
}
