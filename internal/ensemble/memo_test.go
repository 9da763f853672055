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
// to it, or stand still (p̂ = 0). The readout's memo is empty.
func memoArrangement(src *rng.Source, n int) (r *Readout, T0 uint64) {
	const P0 = 1 / 3.1e9
	T0 = uint64(math.Exp2(src.Float64() * 63.9))
	V0 := float64(T0) * P0
	spread := []float64{1e-9, 1e-6, 1e-3}[src.Intn(3)]
	dyadic := src.Intn(2) == 0
	r = &Readout{voters: make([]voter, 0, n)}
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

// memoProbe counts what a property run exercised: every read, the
// reads inside a recorded piece, those of them at a half-weight tie and
// those the one-voter path serves, and the memos that declined.
type memoProbe struct {
	reads, pieceReads, tieReads, oneReads, sortedMemos int
}

// checkMemoAt compares one read with the sorted read, bit for bit.
func checkMemoAt(t testing.TB, r *Readout, T uint64, p *memoProbe) {
	t.Helper()
	got, want := r.AbsoluteTime(T), r.sortedTime(T)
	v, ready := viewMemo(r)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%d voters, T=%d: memo read %v (%#x), sorted read %v (%#x); memo state %d, piece [%d, %d]",
			len(r.voters), T, got, math.Float64bits(got), want, math.Float64bits(want), r.memo.state.Load()&memoMask, v.lo, v.hi)
	}
	p.reads++
	if !ready {
		return
	}
	pick := r.memo.state.Load() >> memoShift
	tie := pick&0xff != pick>>8
	if want := &r.voters[pick&0xff]; tie && v.one != nil || !tie && v.one != want {
		t.Fatalf("%d voters: pick %#x, one-voter pointer %p; want nil at a tie, else %p", len(r.voters), pick, v.one, want)
	}
	if v.lo <= T && T <= v.hi {
		p.pieceReads++
		if tie {
			p.tieReads++
		} else {
			p.oneReads++
		}
	}
}

// memoView is what a ready memo holds: its piece and its one-voter
// pointer.
type memoView struct {
	lo, hi uint64
	one    *voter
}

// viewMemo reads a ready memo's piece and pointer after the acquiring
// load of its state, as AbsoluteTime does; ready is false (and the view
// zero) when the memo is not ready.
func viewMemo(r *Readout) (v memoView, ready bool) {
	if r.memo.state.Load()&memoMask != memoReady {
		return memoView{}, false
	}
	return memoView{r.memo.lo, r.memo.hi, r.memo.one}, true
}

// checkMemoArrangement fills r's memo with a first read at first, then
// reads r at random counter values over the whole range and around T0,
// and ±64 counts around both ends of the recorded piece.
func checkMemoArrangement(t testing.TB, src *rng.Source, r *Readout, first, T0 uint64, p *memoProbe) {
	t.Helper()
	checkMemoAt(t, r, first, p) // the first read fills the memo
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
	if v, ready := viewMemo(r); ready {
		for _, end := range []uint64{v.lo, v.hi} {
			for d := uint64(0); d <= 128; d++ {
				checkMemoAt(t, r, end-64+d, p)
			}
		}
	}
}

// TestReadMemoMatchesSorted is the memo's property: over random
// arrangements of 1…readScratch voters — crossings anywhere on the
// counter axis, nearly parallel and identical lines, exact half-weight
// ties, asymmetry corrections and local-rate extrapolation — every read
// equals the sorted read bit for bit: at the first read, which lands at
// the crossings, near them or anywhere on the axis; inside the recorded
// piece (one evaluation), ±64 counts around both its ends, and at random
// counter values.
func TestReadMemoMatchesSorted(t *testing.T) {
	src := rng.New(53)
	var p memoProbe
	for n := 1; n <= readScratch; n++ {
		for trial := 0; trial < 60; trial++ {
			r, T0 := memoArrangement(src, n)
			first := []uint64{T0, T0 + uint64(src.Intn(1<<30)) - 1<<29, src.Uint64()}[src.Intn(3)]
			checkMemoArrangement(t, src, r, first, T0, &p)
		}
	}
	t.Logf("%d reads, %d by one piece (%d by one voter, %d at a half-weight tie), %d memos declined", p.reads, p.pieceReads, p.oneReads, p.tieReads, p.sortedMemos)
	if p.pieceReads < p.reads/4 || p.oneReads == 0 || p.tieReads == 0 {
		t.Errorf("coverage: %d of %d reads by a piece, %d by one voter, %d at a tie — harness lost its teeth", p.pieceReads, p.reads, p.oneReads, p.tieReads)
	}
}

// FuzzReadMemo holds the memo read to the sorted read on arbitrary
// arrangements (a seed), voter counts and first-read counter values.
func FuzzReadMemo(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint64(1<<40))
	f.Add(uint64(2), uint8(5), uint64(1<<60))
	f.Add(uint64(3), uint8(16), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, T uint64) {
		src := rng.New(seed)
		r, T0 := memoArrangement(src, 1+int(n)%readScratch)
		var p memoProbe
		checkMemoArrangement(t, src, r, T, T0, &p)
	})
}

// TestReadMemoDeclines: what the memo cannot hold it records as such,
// and those readouts read sorted — more voters than readScratch, a
// clock whose terms could overflow somewhere on the counter axis, a
// NaN, and a first read inside a guard band (two lines crossing there).
// A declined memo, and one whose piece is a half-weight tie, leave the
// one-voter pointer nil: AbsoluteTime's one-call path never serves them.
func TestReadMemoDeclines(t *testing.T) {
	src := rng.New(7)
	huge, _ := memoArrangement(src, 3)
	huge.voters[1].clock = &core.Readout{P: 1e290, K: 1}
	nan, _ := memoArrangement(src, 3)
	nan.voters[2].clock = &core.Readout{P: 1e-9, K: math.NaN()}
	many := &Readout{}
	for i := 0; i <= readScratch; i++ {
		many.voters = append(many.voters, voter{clock: &core.Readout{P: 1e-9, K: float64(i)}, raw: 1})
	}
	const X = 1 << 40 // where the two lines cross
	a := &core.Readout{P: 1e-9}
	b := &core.Readout{P: 1e-9 * (1 + 1e-6)}
	b.K = a.P*X - b.P*X
	crossing := &Readout{voters: []voter{{clock: a, raw: 1}, {clock: b, raw: 1}, {clock: a, raw: 1}}}
	for name, c := range map[string]struct {
		r     *Readout
		first uint64
	}{"overflow": {huge, 0}, "NaN": {nan, 0}, "past readScratch": {many, 0}, "first read in a band": {crossing, X}} {
		for _, T := range []uint64{c.first, 0, 1 << 40, math.MaxUint64} {
			got, want := c.r.AbsoluteTime(T), c.r.sortedTime(T)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: read %v, sorted %v", name, got, want)
			}
		}
		if s := c.r.memo.state.Load(); s != memoSorted || c.r.memo.one != nil {
			t.Errorf("%s: memo state %d, one-voter pointer %p; want memoSorted (%d) and nil", name, s, c.r.memo.one, memoSorted)
		}
	}
	// Two equal weights on parallel lines a millisecond apart: no band
	// anywhere, and the median is their mean everywhere.
	tied := &Readout{voters: []voter{{clock: &core.Readout{P: 1e-9}, raw: 1}, {clock: &core.Readout{P: 1e-9, K: 1e-3}, raw: 1}}}
	for _, T := range []uint64{1 << 40, 0, 1<<40 + 1, math.MaxUint64} {
		got, want := tied.AbsoluteTime(T), tied.sortedTime(T)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("tie: read %v, sorted %v", got, want)
		}
	}
	if s := tied.memo.state.Load(); s != memoReady|(0|1<<8)<<memoShift || tied.memo.one != nil {
		t.Errorf("tie: memo state %#x, one-voter pointer %p; want a ready two-voter pick and nil", s, tied.memo.one)
	}
}

// TestReadMemoConcurrentFirstReads races several readers on the first
// read of each fresh readout, each starting at a different counter value
// (run it under -race: two fills would be concurrent writes to the
// memo's piece). Every answer equals the sorted read, every memo ends
// filled or declined — never empty or mid-fill — and what it holds is
// what a fill of an identical readout made alone records at one of the
// racing first reads: which read fills first decides the piece, never
// an answer's bits. A racing reader sees no piece or a whole one: every
// ready memo it observes after a read is the final one, lo, hi and the
// one-voter pointer from the same fill.
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
		seen := make([][]memoView, readers)
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
					if v, ready := viewMemo(r); ready {
						seen[g] = append(seen[g], v)
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
		final, _ := viewMemo(r)
		for g := range seen {
			for _, v := range seen[g] {
				if v != final {
					t.Fatalf("trial %d: reader %d saw %+v mid-race, the memo ended %+v", trial, g, v, final)
				}
			}
		}
		matched := false
		for _, T := range Ts {
			alone := &Readout{voters: r.voters}
			alone.AbsoluteTime(T)
			v, _ := viewMemo(alone)
			matched = matched || alone.memo.state.Load() == s && v == final
		}
		if !matched {
			t.Fatalf("trial %d: state %#x, memo %+v after the race; no lone fill at %v records it", trial, s, final, Ts)
		}
	}
}
