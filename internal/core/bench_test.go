package core

import (
	"fmt"
	"testing"

	"repro/internal/cpuid"
	"repro/internal/timebase"
)

// benchTraceLen is the synthetic trace length for the throughput
// suite: long enough that the engine's top window slides dozens of
// times at the default configuration, so the amortized costs of
// sliding, r̂ re-derivation and pair revalidation are all inside the
// measurement. The trace itself comes from SynthTrace (synth.go),
// shared with the ensemble's BenchmarkEnsemble.
const benchTraceLen = 1_000_000

var benchTrace []Input // lazily built, shared across sub-benchmarks

// BenchmarkProcess measures steady-state per-packet engine throughput
// over a 1M-packet synthetic trace at several window configurations
// (all windows are durations; packet counts follow from the 16 s
// poll). The nShift=1024/nOff=16 row pairs the large shift window with
// the paper's τ′ = τ*/4 offset-window sensitivity setting, isolating
// the cost of minimum tracking from the cost of the weighted offset
// scan. Run with -benchmem: steady state must stay at 0 allocs/op (the
// only byte counts are the windows' growth during the first top window,
// amortized over the full trace).
func BenchmarkProcess(b *testing.B) {
	if benchTrace == nil {
		benchTrace = SynthTrace(benchTraceLen)
	}
	tau := 1000.0 // τ*, the default OffsetWindow
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"window=default", nil},
		{"window=nShift1024", func(c *Config) { c.ShiftWindow = 1024 * 16 }},
		{"window=nShift1024_nOff16", func(c *Config) {
			c.ShiftWindow = 1024 * 16
			c.OffsetWindow = tau / 4
		}},
		{"window=nShift4096", func(c *Config) { c.ShiftWindow = 4096 * 16 }},
		{"window=nShift16384", func(c *Config) { c.ShiftWindow = 16384 * 16 }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := DefaultConfig(2e-9, 16)
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			s, err := NewSync(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(benchTrace)
				if j == 0 && i > 0 {
					// The trace wrapped: counters would regress, so
					// restart the engine outside the timer.
					b.StopTimer()
					s, err = NewSync(cfg)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := s.Process(benchTrace[j]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProcessStages decomposes BenchmarkProcess/window=default —
// what the benchmark ledger reports as core.process_ns — into the
// engine's stages, each run by the method Process itself calls, on an
// engine three top-window slides into the trace (every window full, every
// tracker in its steady state): filter (RTT under p̂, the r̂ deque, the
// point error), rate (the paired estimator's accept test and estimate),
// shift (upward level-shift detection: in steady state, the threshold
// test that skips the suffix query), offset (the weighted scan of the τ′
// window and the sanity check), window (naive θ̂, the push into the
// history and the scan window, and the top-window slide, whose
// half-window drop and move and pair re-validation amortize over nTop/2
// packets) and publish (the readout
// filled in its slab slot). What the sum leaves of BenchmarkProcess is
// the call itself: input validation and the Result filled and returned
// by value. Inputs keep moving: every stage is fed the packets that
// follow the warm-up, 64 of them in rotation where a stage must stay
// near the engine's present. Every stage must report 0 allocs/op except
// publish, which amortizes its slab.
func BenchmarkProcessStages(b *testing.B) {
	if benchTrace == nil {
		benchTrace = SynthTrace(benchTraceLen)
	}
	const warm = 60_000
	// arrival is a packet as the filter stage hands it on: its history
	// record and the two values its scanRec adds.
	type arrival struct {
		rec             record
		pointErr, theta float64
	}
	// steady returns the warmed engine and the next packets, not yet in
	// the history.
	steady := func(b *testing.B) (*Sync, []arrival) {
		b.Helper()
		s, err := NewSync(DefaultConfig(2e-9, 16))
		if err != nil {
			b.Fatal(err)
		}
		for _, in := range benchTrace[:warm] {
			if _, err := s.Process(in); err != nil {
				b.Fatal(err)
			}
		}
		next := make([]arrival, 64)
		for i := range next {
			in := benchTrace[warm+i]
			a := &next[i]
			a.rec = record{seq: warm + i, ta: in.Ta, tf: in.Tf, tb: in.Tb, te: in.Te}
			a.rec.rtt = timebase.CounterSpan(in.Ta, in.Tf, s.p)
			a.pointErr = max(0, a.rec.rtt-s.rHat)
			a.theta = s.naiveTheta(a.rec)
		}
		b.ReportAllocs()
		b.ResetTimer()
		return s, next
	}
	b.Run("filter", func(b *testing.B) {
		s, _ := steady(b)
		for i := 0; i < b.N; i++ {
			if i%(s.nTop/2) == 0 {
				s.rMin.EvictBefore(warm + i - s.nTop/2) // the slide's part of the deque's life
			}
			in := &benchTrace[(warm+i)%len(benchTrace)]
			rec := record{seq: warm + i, ta: in.Ta, tf: in.Tf, tb: in.Tb, te: in.Te}
			s.filterRTT(&rec)
		}
	})
	b.Run("rate", func(b *testing.B) {
		s, next := steady(b)
		var res Result
		for i := 0; i < b.N; i++ {
			s.updateRate(&next[i&63].rec, &res)
		}
	})
	b.Run("shift", func(b *testing.B) {
		s, _ := steady(b)
		var res Result
		for i := 0; i < b.N; i++ {
			s.detectUpwardShift(&res)
		}
	})
	b.Run("offset", func(b *testing.B) {
		s, next := steady(b)
		var res Result
		for i := 0; i < b.N; i++ {
			a := &next[i&63]
			s.updateOffset(a.rec.tf, a.pointErr, a.theta, &res)
		}
	})
	b.Run("window", func(b *testing.B) {
		s, next := steady(b)
		for i := 0; i < b.N; i++ {
			a := &next[i&63]
			rec := a.rec
			rec.seq = warm + i
			s.pushRecord(&rec, a.pointErr)
			s.slideTopWindow()
		}
	})
	b.Run("publish", func(b *testing.B) {
		s, _ := steady(b)
		for i := 0; i < b.N; i++ {
			s.publish()
		}
	})
}

// BenchmarkOffsetScan is the scan's own budget line: the n newest
// records of a warmed engine's window (63 is τ′ at the default
// configuration, 16 the τ*/4 sensitivity setting, 250 a τ′ four times
// the paper's) scanned as of each of the next 64 arrivals in rotation,
// so the ages keep moving. kernel is offsetScan as updateOffset
// calls it — the AVX2 kernel and the loop as its tail — and is skipped
// where there is no kernel; loop is offsetScanLoop alone, what
// every other platform runs. Both are asserted to allocate nothing.
func BenchmarkOffsetScan(b *testing.B) {
	if benchTrace == nil {
		benchTrace = SynthTrace(benchTraceLen)
	}
	const warm = 60_000
	// τ′ = 4τ* keeps the 250 newest scanRecs in the scan window; their
	// values do not depend on τ′.
	cfg := DefaultConfig(2e-9, 16)
	cfg.OffsetWindow *= 4
	s, err := NewSync(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range benchTrace[:warm] {
		if _, err := s.Process(in); err != nil {
			b.Fatal(err)
		}
	}
	e := s.cfg.E()
	par := scanParams{p: s.p, eps: s.cfg.AgingRate, invE: 1 / e, cutoff: weightCutoffBase * e}
	var sink float64
	for _, n := range []int{16, 63, 250} {
		win := make([]scanRec, n)
		for i := range win {
			win[i] = *s.scan.At(s.scan.Len() - n + i)
		}
		run := func(path string, scan func(*scanParams) float64) {
			b.Run(fmt.Sprintf("n=%d/%s", n, path), func(b *testing.B) {
				if path == "kernel" && !cpuid.AVX2 {
					b.Skip("no AVX2: offsetScan is offsetScanLoop here")
				}
				par := par
				par.fnow = float64(benchTrace[warm].Tf)
				if a := testing.AllocsPerRun(100, func() { sink += scan(&par) }); a != 0 {
					b.Fatalf("%v allocs per scan, want 0", a)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					par.fnow = float64(benchTrace[warm+i&63].Tf)
					sink += scan(&par)
				}
			})
		}
		run("kernel", func(par *scanParams) float64 {
			_, _, t := offsetScan(win, par)
			return t
		})
		run("loop", func(par *scanParams) float64 {
			acc := emptyLanes()
			offsetScanLoop(win, 0, par, &acc)
			return acc.sumWTheta[0]
		})
	}
	_ = sink
}

// BenchmarkProcessLocalRate is the default window configuration with
// the quasi-local rate refinement enabled: the offset scan runs with a
// non-zero γ_l (linear prediction) and the near/far sub-window
// selection runs every packet.
func BenchmarkProcessLocalRate(b *testing.B) {
	if benchTrace == nil {
		benchTrace = SynthTrace(benchTraceLen)
	}
	cfg := DefaultConfig(2e-9, 16)
	cfg.UseLocalRate = true
	s, err := NewSync(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(benchTrace)
		if j == 0 && i > 0 {
			b.StopTimer()
			s, err = NewSync(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := s.Process(benchTrace[j]); err != nil {
			b.Fatal(err)
		}
	}
}
