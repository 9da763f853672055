package tscclock

// The root benchmarks: the streaming pipeline's memory ceiling
// (BenchmarkLongRunDays) and the writer→reader hand-off of the published
// readouts (BenchmarkReadParallel, BenchmarkWriteBesideReader,
// BenchmarkClockReads). The paper's tables and figures are not
// benchmarks: `go run ./cmd/experiments -run all` regenerates them and
// gates on their checks, TestAccuracyGolden does the same under `go
// test`, and the per-packet engine cost is core's BenchmarkProcess
// (`make bench`).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/timebase"
)

// BenchmarkLongRunDays is the memory-ceiling benchmark of the streaming
// pipeline: the longrun experiment end to end (pull-based generation →
// engine → online statistics → windowed series) at increasing trace
// lengths, reporting throughput and the sampled peak-heap watermark.
// The paper-scale claim under test: wall-clock grows with the packet
// count, peak heap does not (it plateaus at the fixed accumulator
// ceilings plus GC overshoot — see PERF.md for recorded curves).
func BenchmarkLongRunDays(b *testing.B) {
	for _, days := range []float64{1, 7, 21, 63} {
		b.Run(fmt.Sprintf("days=%g", days), func(b *testing.B) {
			peak := uint64(0)
			packets := 0.0
			for i := 0; i < b.N; i++ {
				rep, err := experiments.Run("longrun", experiments.Options{LongRunDays: days})
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range rep.Checks {
					if !c.Pass() {
						b.Fatalf("check %q failed: want %s, got %s", c.Name, c.Want(), c.Got())
					}
				}
				if rep.PeakHeap > peak {
					peak = rep.PeakHeap
				}
				packets += days * timebase.Day / 16
			}
			b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/packets, "ns/packet")
		})
	}
}

// The clocks the hand-off benchmarks below run on: an endless monotone
// stream of clean exchanges (16 s polling, 400 µs RTT on a 500 MHz
// counter), so a racing writer never exhausts a trace mid-measurement —
// the contention must last the whole benchmark window.
const (
	benchP       = 2e-9
	benchServers = 3
)

// benchIn is exchange i of a schedule that staggers `servers` servers
// over each 16 s round, as server i%servers sees it.
func benchIn(i, servers int) core.Input {
	const rtt = 400e-6
	now := float64(i/servers)*16 + float64(i%servers)*16/float64(servers) + 1
	return core.Input{
		Ta: uint64(now / benchP), Tf: uint64((now + rtt) / benchP),
		Tb: now + rtt/2, Te: now + rtt/2 + 20e-6,
	}
}

// handOff is one clock as the hand-off benchmarks drive it: write feeds
// exchange i, read reads the absolute clock i counter units past T0.
type handOff struct {
	write func(i int) error
	read  func(i uint64) float64
	next  int // the first exchange not yet fed
}

// calibrate feeds the first n exchanges.
func (h *handOff) calibrate(b *testing.B, n int) {
	b.Helper()
	for ; h.next < n; h.next++ {
		if err := h.write(h.next); err != nil {
			b.Fatal(err)
		}
	}
}

func newClockHandOff(b *testing.B) *handOff {
	b.Helper()
	c, err := New(Options{NominalPeriod: benchP, PollPeriod: 16})
	if err != nil {
		b.Fatal(err)
	}
	T0 := benchIn(2047, 1).Tf
	h := &handOff{
		write: func(i int) error {
			in := benchIn(i, 1)
			_, err := c.ProcessNTPExchange(in.Ta, in.Tf, in.Tb, in.Te)
			return err
		},
		read: func(i uint64) float64 { return c.AbsoluteTime(T0 + i) },
	}
	h.calibrate(b, 2048)
	return h
}

func newEnsembleHandOff(b *testing.B) *handOff {
	b.Helper()
	e, err := NewEnsemble(EnsembleOptions{
		Servers: benchServers,
		Clock:   Options{NominalPeriod: benchP, PollPeriod: 16},
	})
	if err != nil {
		b.Fatal(err)
	}
	T0 := benchIn(100*benchServers, benchServers).Ta
	h := &handOff{
		write: func(i int) error {
			in := benchIn(i, benchServers)
			_, err := e.ProcessNTPExchange(i%benchServers, in.Ta, in.Tf, in.Tb, in.Te)
			return err
		},
		read: func(i uint64) float64 { return e.AbsoluteTime(T0 + i) },
	}
	h.calibrate(b, 100*benchServers)
	return h
}

// readBesideWriter times reads from b.RunParallel's goroutines while
// one goroutine writes flat out for the whole window, and reports the
// writer's rate beside the readers' ns/op: the two sides of one
// hand-off, so a gain for reads that costs writes cannot hide.
func readBesideWriter(b *testing.B, h *handOff) {
	var writes atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // the writer races every reader, for the whole window
		defer close(done)
		for i := h.next; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := h.write(i); err != nil {
				b.Error(err)
				return
			}
			writes.Add(1)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	w0 := writes.Load()
	b.RunParallel(func(pb *testing.PB) {
		var sink float64
		i := uint64(0)
		for pb.Next() {
			i++
			sink += h.read(i)
		}
		_ = sink
	})
	b.StopTimer()
	w := writes.Load() - w0
	close(stop)
	<-done
	b.ReportMetric(float64(w)/b.Elapsed().Seconds(), "writes/s")
}

// BenchmarkReadParallel measures the lock-free read path under reader
// concurrency while a writer goroutine continuously processes packets:
// the workload the published-readout refactor exists for. Readers run
// with b.RunParallel (one goroutine per GOMAXPROCS unit); ns/op is the
// per-read latency, which must not collapse as GOMAXPROCS grows (no
// reader/writer serialization — compare `-cpu 1,2,4` runs; numbers in
// PERF.md), and writes/s is what the writer got done meanwhile.
func BenchmarkReadParallel(b *testing.B) {
	b.Run("Clock", func(b *testing.B) { readBesideWriter(b, newClockHandOff(b)) })
	// MutexBaseline is the pre-refactor read path — every read takes
	// the lock the writer holds during Process — reconstructed here so
	// the serialization cost the published readout removed stays
	// measurable.
	b.Run("MutexBaseline", func(b *testing.B) {
		s, err := core.NewSync(core.DefaultConfig(benchP, 16))
		if err != nil {
			b.Fatal(err)
		}
		var mu sync.Mutex
		T0 := benchIn(2047, 1).Tf
		h := &handOff{
			write: func(i int) error {
				mu.Lock()
				_, err := s.Process(benchIn(i, 1))
				mu.Unlock()
				return err
			},
			read: func(i uint64) float64 {
				mu.Lock()
				t := s.Readout().AbsoluteTime(T0 + i)
				mu.Unlock()
				return t
			},
		}
		h.calibrate(b, 2048)
		readBesideWriter(b, h)
	})
	b.Run("Ensemble", func(b *testing.B) { readBesideWriter(b, newEnsembleHandOff(b)) })
}

// BenchmarkWriteBesideReader is the hand-off from the writer's side:
// the median cost of one exchange (ns/write), spin-paced the way
// bench/'s clock-reads workload paces it — 20 000/s into the ensemble,
// 5 000/s into the single clock — alone, and beside one goroutine
// reading the clock flat out. The instructions are the same in both, so
// "beside-reader − alone" is what a reader costs the sync loop per
// exchange in cache-line transfers and nothing else: the budget line of
// the hand-off (PERF.md "PR 14").
func BenchmarkWriteBesideReader(b *testing.B) {
	for _, c := range []struct {
		name string
		rate float64 // exchanges/s
		new  func(*testing.B) *handOff
	}{
		{"Ensemble", 20000, newEnsembleHandOff},
		{"Clock", 5000, newClockHandOff},
	} {
		for _, beside := range []bool{false, true} {
			name := c.name + "/alone"
			if beside {
				name = c.name + "/beside-reader"
			}
			b.Run(name, func(b *testing.B) {
				h := c.new(b)
				var stop atomic.Bool
				var reader sync.WaitGroup
				if beside {
					reader.Add(1)
					go func() {
						defer reader.Done()
						var sink float64
						for i := uint64(0); !stop.Load(); i++ {
							sink += h.read(i)
						}
						_ = sink
					}()
				}
				gap := time.Duration(float64(time.Second) / c.rate)
				ns := make([]float64, 0, b.N)
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					for time.Since(start) < time.Duration(i)*gap {
					}
					t0 := time.Now()
					err := h.write(h.next + i)
					ns = append(ns, float64(time.Since(t0)))
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				stop.Store(true)
				reader.Wait()
				b.ReportMetric(stats.NewSorted(ns).Median(), "ns/write")
			})
		}
	}
}

// BenchmarkClockReads measures the absolute-clock read path.
func BenchmarkClockReads(b *testing.B) {
	c, err := New(Options{NominalPeriod: 1e-9, PollPeriod: 16})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.ProcessNTPExchange(1000, 2_000_000, 1, 1.0001); err != nil {
		b.Fatal(err)
	}
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += c.AbsoluteTime(uint64(i) * 1000)
	}
	_ = sink
}
