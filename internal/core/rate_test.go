package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// feedClean drives n clean synthetic exchanges through the engine and
// returns the per-packet results.
func feedClean(t testing.TB, s *Sync, n int, seed uint64) []Result {
	t.Helper()
	src := rng.New(seed)
	const p = 2e-9
	counter := uint64(1000)
	serverT := 0.0
	results := make([]Result, 0, n)
	for i := 0; i < n; i++ {
		counter += uint64(16 / p)
		serverT += 16
		rtt := 300e-6 + src.Exponential(50e-6)
		ta := counter
		tf := ta + uint64(rtt/p)
		res, err := s.Process(Input{Ta: ta, Tf: tf, Tb: serverT + rtt/3, Te: serverT + rtt/3 + 20e-6})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		counter = tf
	}
	return results
}

// TestWarmupRateSmallHistory exercises the near/far warmup scheme in
// its smallest configurations: the first packets after seq 0, where
// the quarter-width sub-windows clamp to single packets and the near
// window start must clamp to the history head (the guard that
// rate.go's explicit nearStart clamp replaces — the seed code carried
// an unreachable `idx < 0` continue inside the scan loop instead).
func TestWarmupRateSmallHistory(t *testing.T) {
	s, err := NewSync(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	results := feedClean(t, s, 6, 21)

	// Packet 0 cannot estimate; packet 1 must produce the naive pair
	// estimate p̂_{2,1} (the paper's first warmup estimate).
	if results[0].RateUpdated {
		t.Error("rate updated on the very first packet")
	}
	if !results[1].RateUpdated {
		t.Error("no rate estimate from the second packet")
	}
	for k, res := range results[1:] {
		if !(res.PHat > 0) || math.IsInf(res.PHat, 0) {
			t.Fatalf("packet %d: bad warmup rate %v", k+1, res.PHat)
		}
		// The synthetic counter runs at exactly 2e-9 s/cycle with small
		// delay noise; even the earliest pair cannot be off by 1%.
		if rel := math.Abs(res.PHat/2e-9 - 1); rel > 0.01 {
			t.Fatalf("packet %d: warmup rate off by %v", k+1, rel)
		}
	}
}

// TestWarmupRateEmptyHistory calls the warmup estimator white-box with
// no history at all: the clamp must hold (no panic, no pair) even
// though Process can never reach this state (count <= 1 returns
// early).
func TestWarmupRateEmptyHistory(t *testing.T) {
	s, err := NewSync(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	rec := record{seq: 0, ta: 1000, tf: 2000, tb: 1, te: 1.0001, rtt: 2e-6}
	var res Result
	s.warmupRate(&rec, &res) // must not panic on n = 0
	if s.havePair || res.RateUpdated {
		t.Error("warmup with empty history fabricated a pair")
	}
}

// TestRateFromDegenerateWarmup: the server's stamps stay frozen at the
// first exchange's through warmup, so every warmup pair is degenerate
// (pairEstimate refuses p = 0) and the first pair is searched for after
// warmup. The sanity bound may not hold that pair to p̂ — still
// PHatInit, which no measurement backs — or it refuses every estimate
// for good; the engine must end where one with a normal warmup does.
func TestRateFromDegenerateWarmup(t *testing.T) {
	cfg := DefaultConfig(2e-9, 16)
	ins := SynthTrace(400)
	frozen := slices.Clone(ins)
	for k := 1; k < cfg.WarmupSamples; k++ {
		frozen[k].Tb, frozen[k].Te = ins[0].Tb, ins[0].Te
	}
	// run returns the last result and the rate updates after and during warmup.
	run := func(ins []Input) (last Result, updates [2]int) {
		s, err := NewSync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range ins {
			if last, err = s.Process(in); err != nil {
				t.Fatal(err)
			}
			updates[btoi(last.Warmup)] += btoi(last.RateUpdated)
		}
		return last, updates
	}
	want, _ := run(ins)
	got, updates := run(frozen)
	if rel := math.Abs(got.PHat/want.PHat - 1); updates[1] != 0 || updates[0] == 0 || rel > 1e-6 {
		t.Errorf("frozen warmup: p̂ %v after %v rate updates, %.3g from the unfrozen run's %v", got.PHat, updates, rel, want.PHat)
	}
	// pairEstimate's other degenerate return: a packet paired with itself.
	r := record{seq: 1, ta: 1000, tf: 2000, tb: 5, te: 5}
	if _, _, ok := (&Sync{}).pairEstimate(&r, &r); ok {
		t.Error("pairEstimate paired a packet with itself")
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestSlidePairReplacement drives the engine far past the top window
// so that the rate pair's older packet (j) is evicted by slides, and
// asserts the seed's replacement contract: after every slide the pair
// has in-window provenance (j's sequence number at or after the
// retained head, and still older than i) and the pair quality never
// worsens across the slide itself. The counter runs at exactly p in
// server time, so every pair estimate stays inside its quality bound
// and the paper's 3e-7 rate sanity never refuses one: rate updates keep
// flowing at these degenerate window sizes, and the replacement path
// is what this test exercises.
func TestSlidePairReplacement(t *testing.T) {
	cfg := DefaultConfig(2e-9, 16)
	cfg.TopWindow = 64 * 16 // tiny top window: slides every 32 packets
	cfg.WarmupSamples = 8
	cfg.OffsetWindow = 8 * 16
	cfg.ShiftWindow = 16 * 16
	cfg.LocalRateWindow = 16 * 16
	s, err := NewSync(cfg)
	if err != nil {
		t.Fatal(err)
	}

	slides, replaced := 0, 0
	src := rng.New(31)
	const p = 2e-9
	counter := uint64(1000)
	serverT := 0.0
	for i := 0; i < 1000; i++ {
		counter += uint64(16 / p)
		serverT += 16
		rtt := 300e-6 + src.Exponential(50e-6)

		preFront := -1
		preQual := math.Inf(1)
		willSlide := s.count-s.front == s.nTop-1 // this Process call will slide
		if willSlide {
			preFront = s.front
			preQual = s.pQual
			// Congest the sliding packet so the rate filter rejects it:
			// pQual then cannot change before slideTopWindow runs, and
			// the pre/post comparison isolates the slide itself.
			rtt += 5e-3
		}
		ta := counter
		tf := ta + uint64(rtt/p)
		res, err := s.Process(Input{Ta: ta, Tf: tf, Tb: serverT + rtt/3, Te: serverT + rtt/3 + 20e-6})
		if err != nil {
			t.Fatal(err)
		}
		if res.RateSanityTriggered {
			t.Fatalf("packet %d: rate sanity refused an estimate of a clean trace", i)
		}

		if willSlide {
			slides++
			if s.front <= preFront {
				t.Fatalf("packet %d: top window did not slide", i)
			}
			if !s.havePair {
				t.Fatalf("packet %d: pair lost across slide", i)
			}
			// Replacement contract: when the evicted j still has a
			// possible successor (some retained packet older than i),
			// the new j must have in-window provenance. When i itself
			// left the window there is no candidate and the stale pair
			// persists as a long-baseline anchor — allowed by design.
			if s.pairI.seq > s.front {
				if s.pairJ.seq < s.front {
					t.Fatalf("packet %d: pair j (seq %d) evicted but not replaced (front seq %d)",
						i, s.pairJ.seq, s.front)
				}
				replaced++
			}
			if s.pairJ.seq >= s.pairI.seq {
				t.Fatalf("packet %d: pair order violated after slide (j %d >= i %d)",
					i, s.pairJ.seq, s.pairI.seq)
			}
			// The slide may only keep or improve the pair quality: the
			// replacement adopts a new rate only when its bound beats
			// the pre-slide one. (The congested packet above guarantees
			// no rate update intervened in this Process call.)
			if s.pQual > preQual {
				t.Fatalf("packet %d: pQual worsened across slide (%v -> %v)",
					i, preQual, s.pQual)
			}
		}
	}
	if slides < 20 {
		t.Fatalf("only %d slides exercised, want >= 20", slides)
	}
	if replaced < 20 {
		t.Fatalf("only %d slides exercised the pair replacement, want >= 20", replaced)
	}
}
