package ensemble

// The read memo: a combined read as one affine evaluation.
//
// Every voter's absolute clock is affine in the counter — C(T) = p̂·T +
// K̂ less θ̂(T), θ̂ itself affine under local-rate prediction (paper eqs.
// 6–7, 23) — so the weighted median of the voters is piecewise affine
// in T: between two crossings of voter lines the voters keep one order,
// and the median is one voter (or, at an exact half-weight tie, the
// mean of two). The first read of a published Readout records that
// arrangement once; every later read outside a guard band finds its
// piece and evaluates one voter.
//
// Why the bits cannot move. A guard band is the range of T where the
// rounding in the read's own operations could order two voters
// differently from exact arithmetic: |exact difference| ≤ the sum of the
// two evaluations' error bounds. Outside every band the computed values
// are strictly ordered as the exact lines are, and no exact order
// changes inside a piece, so the sorted read sorts every T of a piece
// into one permutation, walks one weight sum (medianPos, the sorted
// read's own) to one position, and returns that voter's evaluation —
// the very expression the memo evaluates. Inside a band, before the
// fill, when another reader is filling, or when the arrangement does not
// fit, the read is the sorted read: it stays the one definition, the
// fallback and the test oracle (FuzzReadMemo, TestReadMemoMatchesSorted).

import (
	"math"
	"sync/atomic"
)

// Memo states: the low bits of readMemo.state. Above memoShift, a ready
// memo's state word holds how many guard bands it recorded, so a reader
// learns both from one atomic load.
const (
	memoEmpty   = 0 // not filled: the next reader claims the fill
	memoFilling = 1 // a reader is filling: everyone else reads sorted
	memoReady   = 2 // pieces recorded: a read outside a band is one evaluation
	memoSorted  = 3 // the memo declined (see record): every read is sorted
	memoMask    = 3
	memoShift   = 2
)

// memoGuard is the guard bands' error bound per unit of operand
// magnitude, in units of the float64 rounding unit u = 2⁻⁵³. A voter's
// evaluation rounds each term through at most six operations (the
// local-rate span: conversion, ×p̂, ×g, θ̂ −, C −, − correction), so it
// is within γ₆ ≈ 6u of its exact line times the sum of its terms'
// magnitudes; the fill's computed slope and intercept differences A, B
// of a pair stray 3u and 5u further. So wherever |A·T + B| exceeds 12u
// of the pair's magnitude the read orders the pair as exact arithmetic
// does, and so does the fill's own evaluation of the two lines, which
// stays within 4u of A·T + B. 16 leaves room for the rounding in
// computing the bound and in solving it for T.
const memoGuard = 16 * 0x1p-53

// memoWords is the size of an n-server memo in 64-bit words: room for
// one guard band per pair of voters (two band ends each), then one pick
// byte per piece, eight to a word — 22 words at five servers. Past
// readScratch servers there is no memo: such a readout reads sorted.
func memoWords(n int) int {
	if n > readScratch {
		return 0
	}
	b := n * (n - 1) / 2
	return 2*b + (b+1+7)/8
}

// readMemo is the one part of a published Readout written after
// publication: by its first reader, once, after winning the CAS on
// state. words is carved with the slot, zeroed, and holds — once state
// reads memoReady with nb bands — the inclusive ends [lo, hi] of band k
// at words[2k], words[2k+1] in increasing order, then one pick per
// piece (piece k lies before band k, piece nb after the last) in byte k
// of words[2nb:]: the low nibble is the voter at the weighted-median
// position, the high nibble the next one in sorted order when the
// piece's median falls on an exact half-weight tie (equal nibbles
// otherwise).
type readMemo struct {
	state atomic.Uint32
	words []uint64
}

// memoLine is one voter's clock as the fill sees it: the exact affine
// function the read evaluates, f(T) = s·T + b, and a bound m1·T + m0 on
// the sum of the magnitudes of the terms it rounds.
type memoLine struct{ s, b, m1, m0 float64 }

// band is a closed range of counter values.
type band struct{ lo, hi uint64 }

// at is one voter's term of a combined read: its engine's absolute
// clock less its asymmetry correction. The sorted read and the memo's
// piece read both evaluate a voter through it.
//
//repro:readpath
func (v *voter) at(T uint64) float64 { return v.clock.AbsoluteTime(T) - v.corr }

// piece returns the pick of the piece holding T, or false when T lies
// in a guard band. nb is the band count from the state word.
//
//repro:readpath
func (m *readMemo) piece(T uint64, nb uint32) (uint8, bool) {
	cuts := m.words[:2*nb]
	k := 0 // 2 × the piece index
	for ; k+1 < len(cuts); k += 2 {
		if T < cuts[k] {
			break
		}
		if T <= cuts[k+1] {
			return 0, false
		}
	}
	return uint8(m.words[len(cuts)+k/16] >> (4 * (k % 16))), true
}

// fill claims and fills the memo for the voter list vs and returns the
// state it leaves: memoReady with the band count, memoSorted when the
// arrangement does not fit, or — when another reader won the claim —
// whatever that reader has published so far. It never waits.
//
//repro:readpath
func (m *readMemo) fill(vs []voter) uint32 {
	//repro:readpath-ok claim: the one CAS from empty makes this reader the memo's only writer; a loser reads sorted and never waits
	if !m.state.CompareAndSwap(memoEmpty, memoFilling) {
		return m.state.Load()
	}
	s := uint32(memoSorted)
	if nb, ok := m.record(vs); ok {
		s = memoReady | nb<<memoShift
	}
	//repro:readpath-ok release: publishes the recorded words to every later reader; no reader reads them before this store
	m.state.Store(s)
	return s
}

// record computes the arrangement of vs into m.words: the guard band of
// every pair of voters, sorted and merged in place, then the pick of
// each piece between them, decided at the piece's middle as the sorted
// read decides it (pickAt). It reports false for no voters, more than
// readScratch of them, storage not carved for that many, or a clock
// whose magnitudes could overflow; the state word then says so, and
// nothing reads the words.
//
//repro:readpath
func (m *readMemo) record(vs []voter) (nb uint32, ok bool) {
	n := len(vs)
	if n == 0 || n > readScratch || len(m.words) < memoWords(n) {
		return 0, false
	}
	var lines [readScratch]memoLine
	for i := range vs {
		if lines[i], ok = lineOf(&vs[i]); !ok {
			return 0, false
		}
	}
	nbs := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if b, hit := pairBand(&lines[i], &lines[j]); hit {
				//repro:readpath-ok fill: only the claim's winner writes the words, and no reader reads them before the release
				m.words[2*nbs], m.words[2*nbs+1] = b.lo, b.hi
				nbs++
			}
		}
	}
	nb = uint32(mergeBands(m.words[:2*nbs]))
	cuts := m.words[:2*nb]
	total := 0.0
	for i := range vs {
		total += vs[i].raw
	}
	var pw uint64
	for k := uint32(0); k <= nb; k++ {
		if T, ok := pieceMid(cuts, k); ok {
			pw |= uint64(pickAt(vs, &lines, T, total)) << (8 * (k % 8))
		}
		if k%8 == 7 || k == nb {
			//repro:readpath-ok fill: only the claim's winner writes the words, and no reader reads them before the release
			m.words[2*nb+k/8] = pw
			pw = 0
		}
	}
	return nb, true
}

// pieceMid returns the middle of piece k between the merged bands whose
// ends cuts holds, or false when the piece is empty (a band starts at
// zero or ends at the top of the counter range).
//
//repro:readpath
func pieceMid(cuts []uint64, k uint32) (uint64, bool) {
	start, end := uint64(0), uint64(math.MaxUint64)
	if k > 0 {
		if cuts[2*k-1] == math.MaxUint64 {
			return 0, false
		}
		start = cuts[2*k-1] + 1
	}
	if 2*k < uint32(len(cuts)) {
		if cuts[2*k] == 0 {
			return 0, false
		}
		end = cuts[2*k] - 1
	}
	return start + (end-start)/2, true
}

// lineOf returns voter v's line and its magnitude bound, mirroring
// core.Readout.AbsoluteTime's three branches (no offset yet, offset
// held, offset extrapolated at the local rate) and the correction. The
// local-rate factor g is computed by the read's own expression, so the
// fill treats the same constant as exact. It reports false when the
// terms could reach 2¹⁰⁰⁰ anywhere on the counter axis (NaN and ±Inf
// included): then nothing the read computes can overflow, and the
// bound's relative error model holds.
//
//repro:readpath
func lineOf(v *voter) (memoLine, bool) {
	c := v.clock
	l := memoLine{s: c.P, b: c.K - v.corr, m1: math.Abs(c.P), m0: math.Abs(c.K) + math.Abs(v.corr)}
	if c.HaveTheta {
		l.b -= c.Theta
		l.m0 += math.Abs(c.Theta)
		if c.UseLocalRate && c.PLocalValid && c.P > 0 {
			// θ̂(T) = θ̂ − g·(T − T_θ)·p̂: the span term adds g·p̂ to the
			// slope and −g·p̂·T_θ to the intercept, and its magnitude is
			// bounded by |g·p̂|·(T + T_θ).
			gl := c.PLocal/c.P - 1
			gp := float64(gl * c.P)
			tf := float64(c.ThetaTf)
			l.s += gp
			l.b -= float64(gp * tf)
			l.m1 += math.Abs(gp)
			l.m0 += float64(math.Abs(gp) * tf)
		}
	}
	return l, float64(l.m1*0x1p64)+l.m0 < 0x1p1000
}

// pairBand returns the guard band of voters a and b: a closed range of
// counter values holding every T where |exact difference| ≤ the two
// evaluations' error bounds, and hit=false when no counter value does.
// The exact difference is the affine D(T) = A·T + B, the bound
// memoGuard·((m1ₐ+m1_b)·T + m0ₐ + m0_b); |D| ≤ bound is two linear
// inequalities, whose solutions are widened outward by 2⁻⁴⁰ relative
// and two counts for their own rounding. Lines that passed lineOf's
// bound keep every quantity here finite or ±Inf, never NaN.
//
//repro:readpath
func pairBand(a, b *memoLine) (bd band, hit bool) {
	A, B := a.s-b.s, a.b-b.b
	alpha := float64(memoGuard * (a.m1 + b.m1))
	beta := float64(memoGuard*(a.m0+b.m0)) + 0x1p-1000 // 0x1p-1000 covers underflow's absolute error
	lo, hi := 0.0, 0x1p64
	lo, hi = solveLE(A-alpha, beta-B, lo, hi)  // (A − α)·T ≤ β − B
	lo, hi = solveLE(-A-alpha, beta+B, lo, hi) // (−A − α)·T ≤ β + B
	if lo > hi || lo >= 0x1p64 || hi < 0 {
		return band{}, false
	}
	bd = band{0, math.MaxUint64}
	if lo > 0 {
		bd.lo = uint64(math.Floor(lo))
	}
	if hi < 0x1p64 {
		bd.hi = uint64(math.Ceil(hi))
	}
	return bd, true
}

// solveLE intersects [lo, hi] with the solutions of q·T ≤ r, rounding
// the boundary outward.
//
//repro:readpath
func solveLE(q, r, lo, hi float64) (float64, float64) {
	switch {
	case q > 0:
		x := r / q
		hi = min(hi, x+float64(math.Abs(x)*0x1p-40)+2)
	case q < 0:
		x := r / q
		lo = max(lo, x-float64(math.Abs(x)*0x1p-40)-2)
	case r < 0: // q == 0: no T at all
		lo = math.Inf(1)
	}
	return lo, hi
}

// mergeBands sorts the bands held as [lo, hi] pairs in w by start and
// merges overlapping or adjacent ones in place, returning how many
// bands the merged prefix of w holds. During the fill, w is the memo's
// own words.
//
//repro:readpath
func mergeBands(w []uint64) int {
	for i := 2; i < len(w); i += 2 {
		lo, hi, j := w[i], w[i+1], i
		for ; j > 0 && lo < w[j-2]; j -= 2 {
			w[j], w[j+1] = w[j-2], w[j-1]
		}
		w[j], w[j+1] = lo, hi
	}
	out := 0
	for i := 0; i < len(w); i += 2 {
		if out > 0 && (w[out-1] == math.MaxUint64 || w[i] <= w[out-1]+1) {
			w[out-1] = max(w[out-1], w[i+1])
			continue
		}
		w[out], w[out+1] = w[i], w[i+1]
		out += 2
	}
	return out / 2
}

// pickAt is the sorted read's decision at a counter value T outside
// every guard band, as a pick: the voters stably sorted by value as
// medianOfItems sorts them, and the weights walked in that order by
// medianPos against the total summed in voter order, as the read sums
// it. The values are the lines' own, s·T + b — outside every band they
// order the voters as the read's evaluations do (memoGuard), at a
// fraction of the cost.
//
//repro:readpath
func pickAt(vs []voter, lines *[readScratch]memoLine, T uint64, total float64) uint8 {
	var items [readScratch]wv
	var ord [readScratch]uint8
	x := float64(T)
	for i := range vs {
		it, j := wv{float64(lines[i].s*x) + lines[i].b, vs[i].raw}, i
		for ; j > 0 && it.v < items[j-1].v; j-- {
			items[j], ord[j] = items[j-1], ord[j-1]
		}
		items[j], ord[j] = it, uint8(i)
	}
	pos, tie := medianPos(items[:len(vs)], total)
	a, b := ord[pos], ord[pos]
	if tie {
		b = ord[pos+1]
	}
	return a | b<<4
}
