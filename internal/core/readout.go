package core

// The published readout: the lock-free read side of the engine.
//
// The clock is read far more often than it is written — one Process
// call per poll period (tens of seconds on the live path) against
// arbitrarily many AbsoluteTime/DifferenceSpan reads per second — so
// the read state is split out into a small immutable value that
// Process publishes through an atomic pointer after every packet.
// Readers load the pointer once and evaluate pure functions of the
// snapshot; they never touch the engine's mutable filtering state, so
// reads are safe under unbounded concurrency, never block the writer,
// and never observe a half-updated clock (a torn p̂/K̂ pair would step
// the absolute clock; the snapshot swap is all-or-nothing).

import (
	"sync/atomic"

	"repro/internal/cacheline"
	"repro/internal/timebase"
)

// Readout is an immutable snapshot of everything a clock read needs:
// the affine counter→time parameters (p̂, K̂, the θ̂ anchor), the local
// rate used for linear offset prediction, and the quality/status
// fields a consumer needs to judge the reading. Values are plain —
// copying a Readout is safe and cheap, and all methods are pure
// functions, so a Readout obtained once keeps answering consistently
// even while the engine processes further packets.
//
// Field order is layout, not grouping: what AbsoluteTime touches (P, K,
// the θ̂ anchor, p̂_l and the flags) comes first and contiguous, and the
// five flags and the 8-byte Identity share two words instead of taking
// an aligned word each — 88 bytes per publication, not 112.
//
//repro:immutable
type Readout struct {
	// P and K define the uncorrected clock C(T) = P·T + K (seconds on
	// the server timescale at counter value T).
	P float64
	K float64

	// Theta is the offset estimate θ̂ made at counter value ThetaTf;
	// HaveTheta (below) reports whether any estimate exists yet.
	Theta   float64
	ThetaTf uint64

	// PLocal is the quasi-local rate estimate p̂_l and PLocalValid its
	// freshness flag; UseLocalRate mirrors the engine configuration.
	// Offset reads apply linear prediction only when all three align,
	// exactly as the engine does.
	PLocal float64

	// The flags, one word. HaveTheta: an offset estimate exists (it does
	// from the first processed packet onward). Warmup: the engine was
	// still in warmup. IdentKnown: Ident was ever observed.
	HaveTheta    bool
	PLocalValid  bool
	UseLocalRate bool
	Warmup       bool
	IdentKnown   bool

	// Ident is the last observed server identity (zero when none was
	// ever observed; see IdentKnown).
	Ident Identity

	// Quality and status.
	PQuality float64 // estimated relative error bound of P
	RTTHat   float64 // current minimum-RTT estimate r̂ (s)
	Count    int     // packets processed when this readout was published

	// LastTf is the host counter value of the most recent processed
	// exchange: the staleness anchor. Age converts it to seconds.
	LastTf uint64
}

// ClockAt evaluates the uncorrected clock C(T) = P·T + K.
//
//repro:readpath
func (r *Readout) ClockAt(T uint64) float64 { return float64(float64(T)*r.P) + r.K }

// ThetaAt extrapolates the offset estimate to counter value T, using
// the local rate linear prediction when it is valid (equation 23).
//
//repro:readpath
func (r *Readout) ThetaAt(T uint64) float64 {
	if !r.HaveTheta {
		return 0
	}
	if r.UseLocalRate && r.PLocalValid && r.P > 0 {
		// g = p̂_l/p̂ − 1, the local rate's relative correction, named by
		// no variable: that keeps AbsoluteTime within the inlining budget.
		return r.Theta - float64((r.PLocal/r.P-1)*timebase.CounterSpan(r.ThetaTf, T, r.P))
	}
	return r.Theta
}

// AbsoluteTime reads the absolute (offset-corrected) clock
// Ca(T) = C(T) − θ̂(T) at counter value T (equation 7).
//
//repro:readpath
func (r *Readout) AbsoluteTime(T uint64) float64 {
	return r.ClockAt(T) - r.ThetaAt(T)
}

// DifferenceSpan measures the interval between two counter readings
// with the difference clock Cd (equation 6): smooth, driven only by P.
//
//repro:readpath
func (r *Readout) DifferenceSpan(T1, T2 uint64) float64 {
	return timebase.CounterSpan(T1, T2, r.P)
}

// Age returns the seconds elapsed (per the difference clock) since the
// exchange this readout was published from — the staleness bound a
// consumer should weigh a reading by. Before the first exchange it
// measures from the counter origin.
//
//repro:readpath
func (r *Readout) Age(T uint64) float64 { return timebase.CounterSpan(r.LastTf, T, r.P) }

// publish makes the current engine state visible to lock-free readers:
// it fills a fresh, zeroed slot in place and stores the pointer. Called
// after every mutation (Process, ObserveIdentity re-base).
//
//repro:builder
func (s *Sync) publish() {
	r := &s.pub.slab.Carve(1)[0]
	r.P = s.p
	r.K = s.c
	r.Theta = s.theta
	r.ThetaTf = s.thetaTf
	r.PLocal = s.pl
	r.HaveTheta = s.haveTh
	r.PLocalValid = s.plValid
	r.UseLocalRate = s.cfg.UseLocalRate
	r.Warmup = s.count <= s.nWarm
	r.IdentKnown = s.identKnown
	r.Ident = s.ident
	r.PQuality = s.pQual
	r.RTTHat = s.rHat
	r.Count = s.count
	if s.hist.Len() > 0 {
		r.LastTf = s.hist.Back().tf
	}
	s.pub.p.Store(r)
}

// Readout returns the most recently published read snapshot. It is
// safe to call from any goroutine at any time, including concurrently
// with Process: the returned value is immutable. It is never nil — a
// pre-first-packet readout (nominal rate, no offset) is published at
// construction.
//
//repro:readpath
func (s *Sync) Readout() *Readout { return s.pub.Load() }

// pubState is the atomic publication slot plus the writer-owned slab
// the slots are carved from, split into its own type solely so sync.go
// stays focused on the algorithms. The carve and the store into p are
// the writer's (under the engine's external serialization); Load is
// wait-free from any goroutine.
//
// A Readout is 88 bytes, not a line multiple, so carving the slab front
// to back would fill the next slot on the line the live readout ends on,
// taking it from every reader once per publication; cacheline.Slab
// carves consecutive publications two slots apart instead.
//
// p is the one word a publication hands from the writer's core to the
// readers': it has a line to itself, so that the slab bookkeeping below
// and the engine state pubState is embedded after — both rewritten on
// every packet — never invalidate the line readers poll.
type pubState struct {
	_ cacheline.Pad
	//repro:polled
	p atomic.Pointer[Readout]
	_ cacheline.Pad

	slab cacheline.Slab[Readout]
}

// Load returns the latest published snapshot.
//
//repro:readpath
func (ps *pubState) Load() *Readout { return ps.p.Load() }
