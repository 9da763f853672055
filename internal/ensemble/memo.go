package ensemble

// The read memo: a combined read as one affine evaluation.
//
// Every voter's absolute clock is affine in the counter — C(T) = p̂·T +
// K̂ less θ̂(T), θ̂ itself affine under local-rate prediction (paper eqs.
// 6–7, 23) — so the weighted median of the voters is piecewise affine
// in T: between two crossings of voter lines the voters keep one order,
// and the median is one voter (or, at an exact half-weight tie, the
// mean of two). The first read of a published Readout records the piece
// it lands in — the counter range between the nearest guard bands on
// either side — and the pick there; every later read inside that piece
// evaluates one voter. A readout's readers read near one counter value,
// so one piece is all a memo needs, and its storage does not grow with
// the voter count: a state word, the piece's two ends and a pointer to
// its one voter, 32 B of the Readout header. The pointer is what makes
// a held read one call: AbsoluteTime tests the state and the range and
// evaluates that voter inline, touching neither the voter list nor the
// pick bits (readout.go).
//
// Why the bits cannot move. A guard band is the range of T where the
// rounding in the read's own operations could order two voters
// differently from exact arithmetic: |exact difference| ≤ the sum of the
// two evaluations' error bounds. Outside every band the computed values
// are strictly ordered as the exact lines are, and no exact order
// changes inside a piece, so the sorted read sorts every T of a piece
// into one permutation, walks one weight sum (medianPos, the sorted
// read's own) to one position, and returns that voter's evaluation —
// the very expression the memo evaluates. Outside the piece, before the
// fill, when another reader is filling, or when the first read fell in a
// band or the arrangement does not fit, the read is the sorted read: it
// stays the one definition, the fallback and the test oracle
// (FuzzReadMemo, TestReadMemoMatchesSorted).

import (
	"math"
	"sync/atomic"
)

// Memo states: the low bits of readMemo.state. Above memoShift, a ready
// memo's state word holds its pick (see pickAt), so a reader learns
// both from one atomic load.
const (
	memoEmpty   = 0 // not filled: the next reader claims the fill
	memoFilling = 1 // a reader is filling: everyone else reads sorted
	memoReady   = 2 // a piece recorded: a read inside it is one evaluation
	memoSorted  = 3 // the memo declined (see pieceAt): every read is sorted
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

// readMemo is the one part of a published Readout written after
// publication: by its first reader, once, after winning the CAS on
// state. Once state reads memoReady, [lo, hi] is the recorded piece:
// the inclusive range of counter values between the nearest guard bands
// on either side of the first read; one is the voter the piece
// evaluates, or nil at a half-weight tie, whose two voters only the
// state word's pick names.
type readMemo struct {
	state  atomic.Uint32
	lo, hi uint64
	one    *voter
}

// memoLine is one voter's clock as the fill sees it: the exact affine
// function the read evaluates, f(T) = s·T + b, and a bound m1·T + m0 on
// the sum of the magnitudes of the terms it rounds.
type memoLine struct{ s, b, m1, m0 float64 }

// band is a closed range of counter values.
type band struct{ lo, hi uint64 }

// at is one voter's term of a combined read: its engine's absolute
// clock less its asymmetry correction. The sorted read and the memo's
// one-voter read both evaluate a voter through it.
//
//repro:readpath
func (v *voter) at(T uint64) float64 { return v.clock.AbsoluteTime(T) - v.corr }

// fill claims and fills the memo for the voter list vs at the first
// read's counter value T and returns the state it leaves: memoReady with
// the pick, memoSorted when pieceAt declines, or — when another reader
// won the claim — whatever that reader has published so far. It never
// waits.
//
//repro:readpath
func (m *readMemo) fill(vs []voter, T uint64) uint32 {
	//repro:readpath-ok claim: the one CAS from empty makes this reader the memo's only writer; a loser reads sorted and never waits
	if !m.state.CompareAndSwap(memoEmpty, memoFilling) {
		return m.state.Load()
	}
	s := uint32(memoSorted)
	if lo, hi, pick, ok := pieceAt(vs, T); ok {
		var one *voter
		if pick&0xff == pick>>8 {
			one = &vs[pick&0xff]
		}
		//repro:readpath-ok fill: only the claim's winner writes the piece, and no reader reads it before the release
		m.lo, m.hi, m.one = lo, hi, one
		s = memoReady | pick<<memoShift
	}
	//repro:readpath-ok release: publishes the recorded piece to every later reader; no reader reads it before this store
	m.state.Store(s)
	return s
}

// pieceAt returns the piece of vs's arrangement holding T — the
// inclusive range [lo, hi] between the nearest guard-band ends on
// either side of T, over the bands of every pair of voters — and its
// pick, decided at T as the sorted read decides it (pickAt). It reports
// false for no voters, more than readScratch of them, a clock whose
// magnitudes could overflow, or a T inside a band; the state word then
// says so.
//
//repro:readpath
func pieceAt(vs []voter, T uint64) (lo, hi uint64, pick uint32, ok bool) {
	n := len(vs)
	if n == 0 || n > readScratch {
		return 0, 0, 0, false
	}
	var lines [readScratch]memoLine
	for i := range vs {
		if lines[i], ok = lineOf(&vs[i]); !ok {
			return 0, 0, 0, false
		}
	}
	lo, hi = 0, math.MaxUint64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b, hit := pairBand(&lines[i], &lines[j])
			switch {
			case !hit:
			case b.hi < T:
				lo = max(lo, b.hi+1)
			case b.lo > T:
				hi = min(hi, b.lo-1)
			default: // T is in the band
				return 0, 0, 0, false
			}
		}
	}
	total := 0.0
	for i := range vs {
		total += vs[i].raw
	}
	return lo, hi, pickAt(vs, &lines, T, total), true
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

// pickAt is the sorted read's decision at a counter value T outside
// every guard band, as a pick: the voters stably sorted by value as
// medianOfItems sorts them, and the weights walked in that order by
// medianPos against the total summed in voter order, as the read sums
// it. The low byte of the pick is the voter at the weighted-median
// position, the byte above it the next one in sorted order when the
// median falls on an exact half-weight tie (the same voter otherwise).
// The values are the lines' own, s·T + b — outside every band they
// order the voters as the read's evaluations do (memoGuard), at a
// fraction of the cost.
//
//repro:readpath
func pickAt(vs []voter, lines *[readScratch]memoLine, T uint64, total float64) uint32 {
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
	return uint32(a) | uint32(b)<<8
}
