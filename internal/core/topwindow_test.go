package core

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// scanWithin and scanBest are the pair searches as plain scans of the
// whole top window w: the seq of the first record older than before
// whose point error against rHat is at most e, and of the first of least
// point error; -1 when there is none.
func scanWithin(w []record, rHat, e float64, before int) int {
	for _, c := range w {
		if c.seq >= before {
			break
		}
		if c.rtt-rHat <= e {
			return c.seq
		}
	}
	return -1
}

func scanBest(w []record, rHat float64, before int) int {
	best, bestErr := -1, math.Inf(1)
	for _, c := range w {
		if c.seq >= before {
			break
		}
		if e := c.rtt - rHat; e < bestErr {
			best, bestErr = c.seq, e
		}
	}
	return best
}

func seqOf(r *record) int {
	if r == nil {
		return -1
	}
	return r.seq
}

type rttPattern struct {
	name string
	rtts []uint64
}

// rttPatterns are RTT sequences, in counter ticks of 2 ns, that stress
// the prefix-minimum lists: ties, plateaus, long strictly decreasing
// runs, and two shapes that leave no retained packet within E* of r̂ at
// the packets that slide a top window of nTop: congestion that ends at
// each of them, long enough to read as an upward shift, and a path whose
// delay drops by more than E* at each of them.
func rttPatterns(n, nTop int, src *rng.Source) []rttPattern {
	const us = 500 // ticks per µs
	ties, plateaus, runs := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	congested, steps := make([]uint64, n), make([]uint64, n)
	level, start, runLen := uint64(400*us), uint64(0), 0
	for k := range n {
		ties[k] = 300*us + 10*us*uint64(src.Intn(4))
		if k%50 == 0 {
			level = 300*us + uint64(src.Intn(400))*us
		}
		plateaus[k] = level
		if runLen == 0 {
			start, runLen = 500*us+uint64(src.Intn(300))*us, 40+src.Intn(160)
		}
		runs[k] = start - uint64(runLen)*us
		runLen--
		congested[k] = 300*us + uint64(src.Exponential(10*us))
		steps[k] = 300*us + uint64(src.Exponential(10*us))
	}
	for slide := nTop - 1; slide < n; slide += nTop / 2 {
		for k := max(0, slide-nTop/2+1); k < slide; k++ {
			congested[k] += 1000 * us
		}
		for k := range slide {
			steps[k] += 400 * us
		}
	}
	return []rttPattern{{"ties", ties}, {"plateaus", plateaus}, {"decreasing-runs", runs}, {"congested-until-slide", congested}, {"steps-down-at-slides", steps}}
}

// TestPairSearchesMatchWindowScan drives engines with odd and even top
// windows through the RTT patterns, with and without a warm-up that
// forms no pair (frozen server stamps, as in
// TestRateFromDegenerateWarmup), and holds the prefix-minimum lists to
// a plain scan of the whole logical top window, which the test keeps
// itself: after every packet the two searches agree with the scans for
// several thresholds and bounds; at every slide that evicts j, the new
// j is the record the scans pick; and the first j after a degenerate
// warm-up is the record a scan of the window picks.
func TestPairSearchesMatchWindowScan(t *testing.T) {
	const n, p = 1500, 2e-9
	var replaced, fallbacks, firstJs int
	for _, nTop := range []int{64, 65, 67, 100, 101} {
		src := rng.New(uint64(nTop))
		for _, pat := range rttPatterns(n, nTop, src) {
			name, rtts := pat.name, pat.rtts
			for _, frozen := range []bool{false, true} {
				cfg := DefaultConfig(p, 16)
				cfg.TopWindow, cfg.WarmupSamples = float64(nTop)*16, 8
				cfg.OffsetWindow, cfg.ShiftWindow, cfg.LocalRateWindow = 8*16, 16*16, 16*16
				cfg.UseLocalRate = nTop%2 == 1
				s, err := NewSync(cfg)
				if err != nil {
					t.Fatal(err)
				}
				eStar := cfg.EStar()
				var w []record // the oracle's top window
				front := 0
				for k, ticks := range rtts {
					ta := 1000 + uint64(k)*8e9
					tb := float64(ta-1000)*p + float64(ticks)*p/2
					if frozen && k > 0 && k < cfg.WarmupSamples {
						tb = 0
					}
					in := Input{Ta: ta, Tf: ta + ticks, Tb: tb, Te: tb + 20e-6}
					preJ, preHave, preRHat := s.pairJ, s.havePair, s.rHat
					res, err := s.Process(in)
					if err != nil {
						t.Fatal(err)
					}
					at := func(what string, got, want int) {
						t.Helper()
						if got != want {
							t.Fatalf("nTop %d, %s, frozen %v, packet %d: %s picks %d, a window scan %d", nTop, name, frozen, k, what, got, want)
						}
					}
					// The first j after a warm-up with no pair: a scan of the
					// window before this packet, under the r̂ the rate stage saw.
					if !preHave && s.havePair && !res.Warmup {
						firstJs++
						want := scanWithin(w, min(preRHat, res.RTT), eStar, k)
						if want < 0 {
							want = k
						}
						at("the first j", s.pairJ.seq, want)
					}
					w = append(w, record{seq: k, ta: in.Ta, tf: in.Tf, tb: in.Tb, te: in.Te, rtt: res.RTT})
					slid := len(w) >= s.nTop
					if slid {
						w = w[s.nTop/2:]
						front += s.nTop / 2
					}
					at("the window front", s.front, front)

					if slid && preHave && s.pairI.seq > preJ.seq && preJ.seq < front {
						want := scanWithin(w, s.rHat, eStar, s.pairI.seq)
						if want < 0 {
							want = scanBest(w, s.rHat, s.pairI.seq)
							fallbacks += btoi(want >= 0)
						}
						if want < 0 {
							want = preJ.seq
						} else {
							replaced++
						}
						at("the slide's new j", s.pairJ.seq, want)
						if want != preJ.seq && s.pairJ != w[want-front] {
							t.Fatalf("nTop %d, %s, packet %d: new j %+v, window record %+v", nTop, name, k, s.pairJ, w[want-front])
						}
					}

					for _, before := range []int{s.pairI.seq, s.count, front + src.Intn(len(w)+1)} {
						tie := w[src.Intn(len(w))].rtt - s.rHat
						for _, e := range []float64{eStar, 0, tie, math.Inf(1)} {
							at("firstWithin", seqOf(s.firstWithin(e, before)), scanWithin(w, s.rHat, e, before))
						}
						at("firstBest", seqOf(s.firstBest(before)), scanBest(w, s.rHat, before))
					}
				}
			}
		}
	}
	if replaced < 1000 || fallbacks < 200 || firstJs < 25 {
		t.Errorf("%d slide replacements (%d by the least-error fallback), %d first j's after a degenerate warm-up: the test lost its teeth",
			replaced, fallbacks, firstJs)
	}
	t.Logf("%d slide replacements (%d by the least-error fallback), %d first j's after a degenerate warm-up", replaced, fallbacks, firstJs)
}
