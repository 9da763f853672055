package tscclock

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (running the experiment in Quick mode and failing
// if any shape check regresses), ablation benchmarks for the design
// choices DESIGN.md calls out, and micro-benchmarks of the pipeline.
//
// Regenerate everything at paper scale with:
//
//	go run ./cmd/experiments -run all
//
// and at benchmark scale with:
//
//	go test -bench . -benchmem

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timebase"
)

// benchExperiment runs one experiment per iteration and asserts its
// shape checks, so `go test -bench .` doubles as a regression harness.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range rep.Checks {
			if !c.Pass {
				b.Fatalf("check %q failed: want %s, got %s", c.Name, c.Want, c.Got)
			}
		}
	}
}

func BenchmarkTable1(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)        { benchExperiment(b, "table2") }
func BenchmarkFig2(b *testing.B)          { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)          { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)          { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)          { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9a(b *testing.B)         { benchExperiment(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)         { benchExperiment(b, "fig9b") }
func BenchmarkFig9c(b *testing.B)         { benchExperiment(b, "fig9c") }
func BenchmarkFig10(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkFig11a(b *testing.B)        { benchExperiment(b, "fig11a") }
func BenchmarkFig11b(b *testing.B)        { benchExperiment(b, "fig11b") }
func BenchmarkFig11c(b *testing.B)        { benchExperiment(b, "fig11c") }
func BenchmarkFig11d(b *testing.B)        { benchExperiment(b, "fig11d") }
func BenchmarkFig12(b *testing.B)         { benchExperiment(b, "fig12") }
func BenchmarkBaselineSWNTP(b *testing.B) { benchExperiment(b, "baseline") }

// BenchmarkEnsembleFault runs the multi-server faulty-server experiment
// (the fan-out throughput benchmark is BenchmarkEnsemble in
// internal/ensemble).
func BenchmarkEnsembleFault(b *testing.B) { benchExperiment(b, "ensemble") }

// BenchmarkLongRun runs the multi-week streaming experiment in quick
// mode, like every other experiment benchmark.
func BenchmarkLongRun(b *testing.B) { benchExperiment(b, "longrun") }

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
					if !c.Pass {
						b.Fatalf("check %q failed: want %s, got %s", c.Name, c.Want, c.Got)
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

// --- ablation benchmarks ---
//
// Each ablation runs the engine over the same trace with one design
// element changed and reports the resulting accuracy as custom metrics
// (median and 99th-percentile absolute offset error, in µs), so the
// contribution of each mechanism is measurable.

func ablationTrace(b *testing.B, mutate func(*sim.Scenario)) *sim.Trace {
	b.Helper()
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 424242)
	if mutate != nil {
		mutate(&sc)
	}
	tr, err := sim.Generate(sc)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// asymmetryAt returns the true path asymmetry Δ in force at time t,
// honoring level shifts. The offset algorithm's best-achievable target
// is −Δ(t)/2 (the midpoint-alignment ambiguity of equation 18), so
// ablations are scored against that target rather than against zero —
// otherwise an estimator that freezes before a route change would be
// rewarded for failing to track.
func asymmetryAt(sc sim.Scenario, t float64) float64 {
	minOf := func(cfg netem.PathConfig) float64 {
		m := cfg.MinDelay
		for _, s := range cfg.Shifts {
			if t >= s.At && (s.Duration <= 0 || t < s.At+s.Duration) {
				m += s.Delta
			}
		}
		if m < 0 {
			m = 0
		}
		return m
	}
	return minOf(sc.Server.Forward) - minOf(sc.Server.Backward)
}

func runAblation(b *testing.B, tr *sim.Trace, cfg core.Config) {
	b.Helper()
	var medUs, p99Us float64
	for i := 0; i < b.N; i++ {
		s, err := core.NewSync(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var absErrs []float64
		for _, e := range tr.Completed() {
			res, err := s.Process(core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te})
			if err != nil {
				b.Fatal(err)
			}
			if e.TrueTf > timebase.Hour {
				thetaG := float64(e.Tf)*res.ClockP + res.ClockC - e.Tg
				target := -asymmetryAt(tr.Scenario, e.TrueTf) / 2
				absErrs = append(absErrs, math.Abs(res.ThetaHat-thetaG-target))
			}
		}
		sorted := stats.NewSorted(absErrs) // one sort for both quantiles
		medUs = sorted.Median() / timebase.Microsecond
		p99Us = sorted.Percentile(99) / timebase.Microsecond
	}
	b.ReportMetric(medUs, "median_us")
	b.ReportMetric(p99Us, "p99_us")
}

func ablationCfg() core.Config {
	return core.DefaultConfig(1.0/548655270, 16)
}

// BenchmarkAblationDefault is the reference point: the full algorithm.
func BenchmarkAblationDefault(b *testing.B) {
	runAblation(b, ablationTrace(b, nil), ablationCfg())
}

// BenchmarkAblationLocalRate adds the local-rate refinement.
func BenchmarkAblationLocalRate(b *testing.B) {
	cfg := ablationCfg()
	cfg.UseLocalRate = true
	runAblation(b, ablationTrace(b, nil), cfg)
}

// BenchmarkAblationNoWeighting degrades the weighted window to a
// last-packet predictor (window of one), quantifying what the
// quality-weighted combination buys.
func BenchmarkAblationNoWeighting(b *testing.B) {
	cfg := ablationCfg()
	cfg.OffsetWindow = cfg.PollPeriod // one packet
	runAblation(b, ablationTrace(b, nil), cfg)
}

// BenchmarkAblationNoAging removes the point-error aging term.
func BenchmarkAblationNoAging(b *testing.B) {
	cfg := ablationCfg()
	cfg.AgingRate = 0
	runAblation(b, ablationTrace(b, nil), cfg)
}

// BenchmarkAblationNoShiftDetector disables upward level-shift
// detection on a trace WITH a route change: the filter then judges all
// post-shift packets as congested, degrading quality packets' supply.
func BenchmarkAblationNoShiftDetector(b *testing.B) {
	mutate := func(sc *sim.Scenario) {
		sc.Server.Forward.Shifts = []netem.Shift{{At: 8 * timebase.Hour, Delta: 0.9 * timebase.Millisecond}}
	}
	cfg := ablationCfg()
	cfg.ShiftThresholdFactor = 1e9 // never triggers
	runAblation(b, ablationTrace(b, mutate), cfg)
}

// BenchmarkAblationShiftDetector is the same route-change trace with
// the detector active, for comparison against NoShiftDetector.
func BenchmarkAblationShiftDetector(b *testing.B) {
	mutate := func(sc *sim.Scenario) {
		sc.Server.Forward.Shifts = []netem.Shift{{At: 8 * timebase.Hour, Delta: 0.9 * timebase.Millisecond}}
	}
	runAblation(b, ablationTrace(b, mutate), ablationCfg())
}

// BenchmarkAblationUserLevelStamps swaps the driver-level timestamping
// model for the noisier user-space one (Section 2.2.1: "the algorithms
// would still work, albeit with higher estimation variance").
func BenchmarkAblationUserLevelStamps(b *testing.B) {
	mutate := func(sc *sim.Scenario) { sc.Host = netem.UserLevelHostStamp() }
	cfg := ablationCfg()
	cfg.Delta = 50 * timebase.Microsecond // recalibrate δ to the stamping
	runAblation(b, ablationTrace(b, mutate), cfg)
}

// --- micro-benchmarks ---

// BenchmarkEnginePerPacket measures the steady-state cost of one
// Process call (windowed filtering included).
func BenchmarkEnginePerPacket(b *testing.B) {
	tr := ablationTrace(b, nil)
	ex := tr.Completed()
	s, err := core.NewSync(ablationCfg())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := ex[i%len(ex)]
		if i > 0 && i%len(ex) == 0 {
			b.StopTimer()
			s, err = core.NewSync(ablationCfg())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := s.Process(core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te}); err != nil {
			b.Fatal(err)
		}
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
				b.ReportMetric(stats.Median(ns), "ns/write")
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
