package core

import (
	"repro/internal/rng"
	"repro/internal/timebase"
)

// SynthTrace generates a deterministic stream of n plausible NTP
// exchanges directly (no simulator): fixed 16 s polling of a 500 MHz
// counter against a server 300 µs away, exponential queueing noise,
// and a 2% fraction of congested packets with a Pareto tail — enough
// traffic realism to exercise the filter's accept/reject paths
// without the cost of the full end-system model.
//
// It is the single source of the throughput-measurement workload:
// BenchmarkProcess and BenchmarkProcessStages (bench_test.go), the
// ensemble benchmarks (internal/ensemble/bench_test.go) and the root
// package's reader/writer race test all consume it, so their ns/packet
// numbers stay comparable.
func SynthTrace(n int) []Input {
	src := rng.New(99)
	const p = 2e-9
	ins := make([]Input, 0, n)
	counter := uint64(1000)
	serverT := 1000.0
	for i := 0; i < n; i++ {
		gap := 16.0
		counter += uint64(gap / p)
		serverT += gap
		rtt := 300*timebase.Microsecond + src.Exponential(60*timebase.Microsecond)
		if src.Bool(0.02) {
			rtt += src.Pareto(timebase.Millisecond, 1.5)
		}
		ta := counter
		tf := ta + uint64(rtt/p)
		tb := serverT + float64(rtt/2)
		te := tb + 20*timebase.Microsecond
		ins = append(ins, Input{Ta: ta, Tf: tf, Tb: tb, Te: te})
		counter = tf
	}
	return ins
}
