package ensemble

import (
	"fmt"
	"testing"

	"repro/internal/cacheline"
	"repro/internal/core"
)

// BenchmarkEnsemble measures the fan-out cost of sharding the packet
// stream across N per-server engines: 1M synthetic exchanges (the same
// core.SynthTrace workload as BenchmarkProcess) dealt round-robin to N
// servers. The per-packet cost must stay
// at the single-engine budget (~420 ns, ~2.4M packets/s/core; PERF.md)
// plus O(1) trust scoring and one O(N) combine — BenchmarkEnsembleStages
// splits that combine into its stages. The median combination of the
// absolute clocks still runs at read time, not per packet.
func BenchmarkEnsemble(b *testing.B) {
	const n = 1 << 20
	ins := core.SynthTrace(n)
	for _, servers := range []int{1, 3, 8} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			cfgs := make([]core.Config, servers)
			for i := range cfgs {
				cfgs[i] = core.DefaultConfig(2e-9, 16)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				e, err := New(Config{Engines: cfgs})
				if err != nil {
					b.Fatal(err)
				}
				for j, in := range ins {
					if _, err := e.Process(j%servers, in); err != nil {
						b.Fatal(err)
					}
				}
				// One combined read per pass keeps the combiner honest
				// without dominating the per-packet measurement.
				sink += e.Readout().AbsoluteTime(ins[n-1].Tf + 1000)
			}
			_ = sink
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/packet")
		})
	}
	// The batched variant deals the same workload in poll rounds — one
	// exchange per server per ProcessBatch — so the selection sweep,
	// ladder and publication run once per round instead of once per
	// packet, and the engines' state is walked while cache-hot. The gap
	// to the per-packet variant is the amortizable combine cost.
	for _, servers := range []int{3, 8} {
		b.Run(fmt.Sprintf("batched/servers=%d", servers), func(b *testing.B) {
			cfgs := make([]core.Config, servers)
			for i := range cfgs {
				cfgs[i] = core.DefaultConfig(2e-9, 16)
			}
			round := make([]BatchExchange, servers)
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				e, err := New(Config{Engines: cfgs})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j+servers <= len(ins); j += servers {
					for k := 0; k < servers; k++ {
						round[k] = BatchExchange{Server: k, In: ins[j+k]}
					}
					if err := e.ProcessBatch(round); err != nil {
						b.Fatal(err)
					}
				}
				sink += e.Readout().AbsoluteTime(ins[n-1].Tf + 1000)
			}
			_ = sink
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/packet")
		})
	}
}

// BenchmarkEnsembleStages decomposes the per-exchange combine — what
// the benchmark ledger reports as ensemble.self_ns — into its stages on
// a calibrated ensemble: observe (fold one engine result into the trust
// state), select (interval pass, closed-form region, classification,
// asymmetry hints), ladder (votes, serving health, rung) and publish
// (weights, per-server entries, rate median, pointer store). The
// select/fractured line re-seats a lying minority before every pass, so
// the incumbent set never mutually intersects and the sorted endpoint
// sweep — the fallback the steady state skips — runs each time. Every
// stage must report 0 allocs/op except publish, which amortizes its
// slabs (3 allocations per cacheline.SlabRuns publications).
func BenchmarkEnsembleStages(b *testing.B) {
	for _, servers := range []int{3, 5, 8} {
		e := calibrated(b, servers, 0)
		T := e.lastTf + 1000
		b.Run(fmt.Sprintf("observe/servers=%d", servers), func(b *testing.B) {
			// A live path: the point error is non-zero and the RTT floor
			// moves by a microsecond now and then.
			res := core.Result{PointError: 40e-6}
			b.ReportAllocs()
			for i, k := 0, 0; i < b.N; i++ {
				res.RTTHat = 400e-6 + 1e-6*float64(i>>4&1)
				e.members[k].observe(&e.cfg.Engines[k], &res)
				if k++; k == servers {
					k = 0
				}
			}
		})
		b.Run(fmt.Sprintf("select/servers=%d", servers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.updateSelection(T + uint64(i))
			}
		})
		b.Run(fmt.Sprintf("select/fractured/servers=%d", servers), func(b *testing.B) {
			liars := (servers - 1) / 2
			f := calibrated(b, servers, liars)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range f.members {
					f.members[k].selected = true
				}
				f.updateSelection(T + uint64(i))
			}
		})
		b.Run(fmt.Sprintf("ladder/servers=%d", servers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.updateLadder()
			}
		})
		b.Run(fmt.Sprintf("publish/servers=%d", servers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.publish()
			}
		})
	}
}

// BenchmarkEnsembleRead measures the read path over a held readout —
// combined absolute time (after the first read, one voter's clock
// evaluation out of the read memo's piece), the precomputed rate, and
// the agreement count — and, as AbsoluteTime/fresh, the first read after
// a publication: the memo's fill plus that read (budget ≤ 250 ns at
// servers=5/convicted=2). Every variant must report 0 allocs/op: reads
// run entirely on stack scratch and the memo lives in the readout
// (TestReadPathZeroAlloc pins the same contract as a hard test).
func BenchmarkEnsembleRead(b *testing.B) {
	// {5, 2} is the ledger's shape (bench/ clock-reads, ensemble.read_ns):
	// five servers, a colluding pair voted out, three voters. 12 and 16
	// are where a fill's pairwise bands are many.
	for _, shape := range []struct{ servers, convicted int }{{3, 0}, {5, 2}, {8, 0}, {12, 0}, {16, 0}} {
		e := calibrated(b, shape.servers, shape.convicted)
		r := e.Readout()
		name := fmt.Sprintf("servers=%d", shape.servers)
		if shape.convicted > 0 {
			name += fmt.Sprintf("/convicted=%d", shape.convicted)
		}
		T := uint64(1 << 40)
		b.Run("AbsoluteTime/"+name, func(b *testing.B) {
			var sink float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += r.AbsoluteTime(T + uint64(i))
			}
			_ = sink
		})
		b.Run("AbsoluteTime/fresh/"+name, func(b *testing.B) {
			// Publications of the same state, made off the clock a slab at
			// a time; each is read once.
			fresh := make([]*Readout, 16*cacheline.SlabRuns)
			var sink float64
			b.ReportAllocs()
			for i := 0; i < b.N; {
				b.StopTimer()
				for k := range fresh {
					e.publish()
					fresh[k] = e.Readout()
				}
				b.StartTimer()
				for k := 0; k < len(fresh) && i < b.N; k, i = k+1, i+1 {
					sink += fresh[k].AbsoluteTime(T + uint64(i))
				}
			}
			_ = sink
		})
		b.Run("RateHat/"+name, func(b *testing.B) {
			var sink float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += r.RateHat()
			}
			_ = sink
		})
		b.Run("Agreement/"+name, func(b *testing.B) {
			var sink int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += r.Agreement(T + uint64(i))
			}
			_ = sink
		})
	}
	// The relay's own read (budget ≤ 60 ns): its upstreams' clocks carry
	// NTP-era seconds, ≈ 3.9e9 s since 1900, where memoGuard's bound —
	// relative to the operands' magnitudes — makes a guard band of every
	// counter value at which two voters are within ≈ 14 µs. The
	// fixture's voters are a few µs apart, so the first read declines the
	// memo and every read is the sorted read.
	e := calibratedAt(b, 5, 2, ntpEra, false)
	r, T := e.Readout(), uint64(1<<40)
	if r.AbsoluteTime(T); r.memo.state.Load() != memoSorted {
		b.Fatalf("harness: memo state %#x at the NTP era, want memoSorted", r.memo.state.Load())
	}
	b.Run("AbsoluteTime/ntp-era/servers=5/convicted=2", func(b *testing.B) {
		var sink float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += r.AbsoluteTime(T + uint64(i))
		}
		_ = sink
	})
	// A held read of a voter that extrapolates its offset at a local
	// rate: the memo records its piece but no header copy, so the read
	// takes one call more, readRest's evaluation through the pointer.
	e = calibratedAt(b, 5, 2, 0, true)
	r, T = e.Readout(), e.Readout().LastTf+1000
	if r.AbsoluteTime(T); r.memo.state.Load() != memoReady || r.memo.n.Load() != 0 {
		b.Fatalf("harness: memo state %#x, width %d with local rates, want memoReady and 0", r.memo.state.Load(), r.memo.n.Load())
	}
	b.Run("AbsoluteTime/local-rate/servers=5/convicted=2", func(b *testing.B) {
		var sink float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += r.AbsoluteTime(T + uint64(i))
		}
		_ = sink
	})
}

// ntpEra is a server time of today on NTP's timescale: ≈ 124 years of
// seconds since 1900.
const ntpEra = 3.9e9

// calibrated returns an ensemble of n identical engines in steady
// state: 200 staggered poll rounds of clean exchanges with a few
// microseconds of queueing jitter, every server past warmup and seated;
// the last `liars` servers answer 5 ms off, a colluding minority the
// selection has convicted. Server time starts near zero.
func calibrated(b *testing.B, n, liars int) *Ensemble {
	return calibratedAt(b, n, liars, 0, false)
}

// calibratedAt is calibrated with every server's time shifted by epoch
// seconds and, with localRate, every engine extrapolating its offset at
// its quasi-local rate: then 400 rounds, so that the local-rate window
// (5 τ* = 5000 s) is full and every engine publishes a valid p̂_l.
func calibratedAt(b *testing.B, n, liars int, epoch float64, localRate bool) *Ensemble {
	b.Helper()
	cfgs := make([]core.Config, n)
	for i := range cfgs {
		cfgs[i] = core.DefaultConfig(synthP, 16)
		cfgs[i].UseLocalRate = localRate
	}
	e, err := New(Config{Engines: cfgs})
	if err != nil {
		b.Fatal(err)
	}
	rounds := 200
	if localRate {
		rounds = 400
	}
	for i := 0; i < rounds; i++ {
		for k := 0; k < n; k++ {
			off := epoch
			if k >= n-liars {
				off += 5e-3
			}
			in := synthInput(float64(i)*16+float64(k)*16/float64(n)+1, off)
			in.Tf += uint64((i*7+k*3)%5) * 1000 // 0–8 µs late
			if _, err := e.Process(k, in); err != nil {
				b.Fatal(err)
			}
		}
	}
	r := e.Readout()
	if r.ReadyCount != n || r.Falsetickers != liars || r.BaseState != StateSynced {
		b.Fatalf("harness: %d/%d ready, %d falsetickers (want %d), state %v", r.ReadyCount, n, r.Falsetickers, liars, r.BaseState)
	}
	for k := range r.Servers {
		if c := r.Servers[k].Clock; c.PLocalValid != localRate {
			b.Fatalf("harness: server %d's local rate valid %v, want %v", k, c.PLocalValid, localRate)
		}
	}
	return e
}
