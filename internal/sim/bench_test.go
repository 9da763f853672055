package sim

import (
	"testing"

	"repro/internal/timebase"
)

// BenchmarkMultiStreamNext times the generator on the shape the
// benchmark's sync-replay and clock-reads workloads replay — the five
// colluding servers with 2 % loss, a total outage and a server step —
// over one day, and reports ns per emitted exchange (sim.next_ns), lost
// ones included. One iteration is one whole day.
func BenchmarkMultiStreamNext(b *testing.B) {
	dur := timebase.Day
	sc := NewColludingScenario(MachineRoom, 1.5*timebase.Millisecond, 16, dur, 1)
	sc.LossProb = 0.02
	sc.AddTotalOutage(dur*5/14, dur*5/14+dur/56)
	sc.AddServerStep(len(sc.Servers)-1, dur*9/14, dur*9/14+dur/28, 3*timebase.Millisecond)
	emitted := 0
	b.ReportAllocs()
	for b.Loop() {
		st, err := NewMultiStream(sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, ok := st.Next(); ok; _, ok = st.Next() {
			emitted++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(emitted), "ns/exchange")
}
