package ensemble

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// memoArrangement builds a published-shape Readout of n voters whose
// lines cross near a random counter value T0 (log-uniform over the whole
// uint64 range, so past 2⁵³ too): rates within a PPM of each other,
// values at T0 within a nanosecond to a millisecond, offsets held or
// extrapolated at a local rate, asymmetry corrections, dyadic weights
// (so exact half-weight ties happen) or continuous ones — and some
// voters repeat an earlier voter's clock exactly, run nearly parallel
// to it, or stand still (p̂ = 0). The readout's memo is empty and sized as nextSlot sizes it.
func memoArrangement(src *rng.Source, n int) (r *Readout, T0 uint64) {
	const P0 = 1 / 3.1e9
	T0 = uint64(math.Exp2(src.Float64() * 63.9))
	V0 := float64(T0) * P0
	spread := []float64{1e-9, 1e-6, 1e-3}[src.Intn(3)]
	dyadic := src.Intn(2) == 0
	r = &Readout{voters: make([]voter, 0, n)}
	r.memo.words = make([]uint64, memoWords(n))
	for i := 0; i < n; i++ {
		v := voter{raw: src.Float64() + 0.05}
		if dyadic {
			v.raw = []float64{0.5, 1, 1, 2}[src.Intn(4)]
		}
		if src.Intn(3) == 0 {
			v.corr = (src.Float64() - 0.5) * 1e-5
		}
		switch k := src.Intn(8); {
		case i > 0 && k == 0: // the same clock as an earlier voter
			v.clock = r.voters[src.Intn(i)].clock
		case i > 0 && k == 1: // an identical copy, another correction
			c := *r.voters[src.Intn(i)].clock
			v.clock = &c
		case i > 0 && k == 2: // nearly parallel to an earlier voter
			c := *r.voters[src.Intn(i)].clock
			c.P *= 1 + (src.Float64()-0.5)*1e-15
			c.K += (src.Float64() - 0.5) * spread
			v.clock = &c
		case k == 3 && src.Intn(4) == 0: // a stopped clock, crossing every other line once
			v.clock = &core.Readout{K: V0 + (src.Float64()-0.5)*spread}
		default:
			c := &core.Readout{P: P0 * (1 + (src.Float64()-0.5)*1e-6)}
			c.K = V0 + (src.Float64()-0.5)*spread - c.P*float64(T0)
			if src.Intn(10) > 0 {
				c.HaveTheta = true
				c.Theta = (src.Float64() - 0.5) * 1e-3
				c.ThetaTf = T0 + uint64(src.Intn(1<<20))<<20
				if c.ThetaTf < T0 {
					c.ThetaTf = T0
				}
				if src.Intn(2) == 0 {
					c.UseLocalRate, c.PLocalValid = true, true
					c.PLocal = c.P * (1 + (src.Float64()-0.5)*1e-7)
				}
			}
			v.clock = c
		}
		r.voters = append(r.voters, v)
	}
	return r, T0
}

// memoProbe counts what a property run exercised.
type memoProbe struct {
	reads, pieceReads, tieReads, sortedMemos int
}

// checkMemoAt compares one read with the sorted read, bit for bit.
func checkMemoAt(t testing.TB, r *Readout, T uint64, p *memoProbe) {
	t.Helper()
	got, want := r.AbsoluteTime(T), r.sortedTime(T)
	if math.Float64bits(got) != math.Float64bits(want) {
		s := r.memo.state.Load()
		t.Fatalf("%d voters, T=%d: memo read %v (%#x), sorted read %v (%#x); memo state %d, bands %v",
			len(r.voters), T, got, math.Float64bits(got), want, math.Float64bits(want), s&memoMask, memoBandEnds(r))
	}
	p.reads++
	if s := r.memo.state.Load(); s&memoMask == memoReady {
		if pick, ok := r.memo.piece(T, s>>memoShift); ok {
			p.pieceReads++
			if pick&15 != pick>>4 {
				p.tieReads++
			}
		}
	}
}

// memoBandEnds returns the recorded band ends of a filled memo.
func memoBandEnds(r *Readout) []uint64 {
	s := r.memo.state.Load()
	if s&memoMask != memoReady {
		return nil
	}
	return r.memo.words[:2*(s>>memoShift)]
}

// checkMemoArrangement reads r at and around T0, at random counter
// values over the whole range, and ±64 counts around every band end.
func checkMemoArrangement(t testing.TB, src *rng.Source, r *Readout, T0 uint64, p *memoProbe) {
	t.Helper()
	checkMemoAt(t, r, T0, p) // the first read fills the memo
	if r.memo.state.Load()&memoMask == memoSorted {
		p.sortedMemos++
	}
	for i := 0; i < 16; i++ {
		checkMemoAt(t, r, src.Uint64(), p)
		checkMemoAt(t, r, 1<<53+src.Uint64()>>11, p)
		checkMemoAt(t, r, T0+uint64(src.Intn(1<<30))-1<<29, p)
	}
	for _, T := range []uint64{0, 1, 1 << 53, math.MaxUint64} {
		checkMemoAt(t, r, T, p)
	}
	for _, end := range memoBandEnds(r) {
		for d := uint64(0); d <= 128; d++ {
			checkMemoAt(t, r, end-64+d, p)
		}
	}
}

// TestReadMemoMatchesSorted is the memo's property: over random
// arrangements of 1…readScratch voters — crossings anywhere on the
// counter axis, nearly parallel and identical lines, exact half-weight
// ties, asymmetry corrections and local-rate extrapolation — every read
// equals the sorted read bit for bit: inside the pieces (one evaluation),
// ±64 counts around every guard-band end, and at random counter values.
func TestReadMemoMatchesSorted(t *testing.T) {
	src := rng.New(53)
	var p memoProbe
	for n := 1; n <= readScratch; n++ {
		for trial := 0; trial < 60; trial++ {
			r, T0 := memoArrangement(src, n)
			checkMemoArrangement(t, src, r, T0, &p)
		}
	}
	t.Logf("%d reads, %d by one piece (%d at a half-weight tie), %d memos declined", p.reads, p.pieceReads, p.tieReads, p.sortedMemos)
	if p.pieceReads < p.reads/4 || p.tieReads == 0 {
		t.Errorf("coverage: %d of %d reads by a piece, %d at a tie — harness lost its teeth", p.pieceReads, p.reads, p.tieReads)
	}
}

// FuzzReadMemo holds the memo read to the sorted read on arbitrary
// arrangements (a seed), voter counts and counter values.
func FuzzReadMemo(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint64(1<<40))
	f.Add(uint64(2), uint8(5), uint64(1<<60))
	f.Add(uint64(3), uint8(16), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, T uint64) {
		src := rng.New(seed)
		r, T0 := memoArrangement(src, 1+int(n)%readScratch)
		var p memoProbe
		checkMemoAt(t, r, T, &p)
		checkMemoArrangement(t, src, r, T0, &p)
	})
}

// TestReadMemoDeclines: what the memo cannot hold it records as such,
// and those readouts read sorted — more voters than readScratch, a
// clock whose terms could overflow somewhere on the counter axis, a
// NaN, and a readout built without memo storage.
func TestReadMemoDeclines(t *testing.T) {
	src := rng.New(7)
	huge, _ := memoArrangement(src, 3)
	huge.voters[1].clock = &core.Readout{P: 1e290, K: 1}
	nan, _ := memoArrangement(src, 3)
	nan.voters[2].clock = &core.Readout{P: 1e-9, K: math.NaN()}
	bare, _ := memoArrangement(src, 3)
	bare.memo.words = nil
	many := &Readout{}
	for i := 0; i <= readScratch; i++ {
		many.voters = append(many.voters, voter{clock: &core.Readout{P: 1e-9, K: float64(i)}, raw: 1})
	}
	many.memo.words = make([]uint64, memoWords(len(many.voters)))
	for name, r := range map[string]*Readout{"overflow": huge, "NaN": nan, "no storage": bare, "past readScratch": many} {
		for _, T := range []uint64{0, 1 << 40, math.MaxUint64} {
			got, want := r.AbsoluteTime(T), r.sortedTime(T)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: read %v, sorted %v", name, got, want)
			}
		}
		if s := r.memo.state.Load(); s != memoSorted {
			t.Errorf("%s: memo state %d, want memoSorted (%d)", name, s, memoSorted)
		}
	}
}

// TestReadMemoConcurrentFirstReads races several readers on the first
// read of each fresh readout (run it under -race: two fills would be
// concurrent writes to the memo's words). Every answer equals the sorted
// read, every memo ends filled or declined — never empty or mid-fill —
// and its words equal a fill of an identical readout made alone.
func TestReadMemoConcurrentFirstReads(t *testing.T) {
	const readers = 4
	src := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		r, T0 := memoArrangement(src, 1+src.Intn(8))
		Ts := []uint64{T0, T0 + 1<<20, src.Uint64(), T0 - 1<<30}
		want := make([]float64, len(Ts))
		for i, T := range Ts {
			want[i] = r.sortedTime(T)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan string, readers*len(Ts))
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := range Ts {
					k := (i + g) % len(Ts)
					if got := r.AbsoluteTime(Ts[k]); math.Float64bits(got) != math.Float64bits(want[k]) {
						errs <- "concurrent first read differs from the sorted read"
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("trial %d: %s", trial, e)
		}
		s := r.memo.state.Load()
		if s&memoMask != memoReady && s != memoSorted {
			t.Fatalf("trial %d: memo left in state %d", trial, s)
		}
		alone := &Readout{voters: r.voters}
		alone.memo.words = make([]uint64, len(r.memo.words))
		if alone.AbsoluteTime(T0); alone.memo.state.Load() != s {
			t.Fatalf("trial %d: state %#x after the race, %#x alone", trial, s, alone.memo.state.Load())
		}
		for i := range alone.memo.words {
			if alone.memo.words[i] != r.memo.words[i] {
				t.Fatalf("trial %d: memo word %d is %#x after the race, %#x alone", trial, i, r.memo.words[i], alone.memo.words[i])
			}
		}
	}
}
