package ensemble

// The published combined readout: the lock-free read side of the
// ensemble, mirroring internal/core's Readout one layer up. The write
// path (Process → trust scoring → selection sweep) publishes an
// immutable snapshot of everything a combined-clock read needs through
// an atomic pointer; readers — the public tscclock.Ensemble/MultiLive
// wrappers, and through them every downstream NTP shard stamping
// replies — load the pointer once and evaluate pure functions, with no
// lock shared with the writer and no possibility of observing a torn
// combine (a half-updated weight/selection set).

import (
	"sync/atomic"

	"repro/internal/cacheline"
	"repro/internal/core"
	"repro/internal/timebase"
)

// ServerReadout is one server's slice of a combined readout: its
// engine's published clock snapshot plus the ensemble-level trust and
// selection view of it.
//
//repro:immutable
type ServerReadout struct {
	// Clock is the server engine's own published readout (affine
	// clock, offset anchor, quality, identity) — shared by pointer,
	// not copied: engine readouts are immutable once published, and
	// sharing keeps the per-packet publication cost flat in the
	// snapshot size (the combine captures whichever engine snapshots
	// were current at publish time; later engine publications swap
	// pointers elsewhere and never mutate these).
	Clock *core.Readout

	// Weight is the normalized combining weight (zero for warmup
	// servers and flagged falsetickers, with the documented mass-
	// eviction and pre-graduation fallbacks already applied); the
	// agreement count's median runs on it. The combined time and rate
	// medians accumulate the unnormalized weight, 1/ErrScale², which
	// travels in the voter list: a weighted median is invariant under
	// uniform scaling only up to rounding at the half-weight boundary,
	// and the published bits are pinned to these two forms.
	Weight float64

	// Trust and selection diagnostics. Ready: past warmup. Selected:
	// in the truechimer set; Falseticker: ready but voted out by the
	// interval-intersection stage. IntersectStreak counts consecutive
	// sweeps intersecting the majority (a flagged server re-enters at
	// readmitAfter). AsymmetryHint is the signed disagreement of the
	// server's absolute clock against the selected-set midpoint (s) — a
	// path-asymmetry estimate no single path can make about itself —
	// and AsymCorrection the damped, clamped correction subtracted from
	// that clock in the combining median (zero unless
	// Config.AsymCorrection is on and the server is selected and
	// unpenalized; see asym.go). ErrScale (s) is what the weight is
	// built from: δ + PointErrLevel (EWMA of the point error) +
	// RTTWobble (EWMA of |Δr̂|) + Penalty (the decaying event penalty).
	Ready           bool
	Selected        bool
	Falseticker     bool
	IntersectStreak int
	AsymmetryHint   float64
	AsymCorrection  float64
	ErrScale        float64
	PointErrLevel   float64
	RTTWobble       float64
	Penalty         float64
	Exchanges       int
}

// voter is what one positive-weight server contributes to a combined
// read, and all a read needs of it: the engine's published clock, the
// asymmetry correction subtracted from it (identically zero while the
// feature is off), and the unnormalized combining weight.
//
//repro:immutable
type voter struct {
	clock *core.Readout
	corr  float64
	raw   float64
}

// Readout is an immutable snapshot of the combined clock: the
// selection result, the per-server states, and the combined rate.
// Exactly one is published per Process/ProcessFrom (and one per
// ProcessBatch), identity changes included; a Readout obtained once
// keeps answering consistently while the ensemble processes further
// exchanges. All methods are pure functions of the snapshot. The one
// thing written after publication is the read memo, which the first
// AbsoluteTime fills once and which changes no answer's bits (memo.go).
//
//repro:immutable
type Readout struct {
	// Servers holds one entry per configured server, in server order.
	Servers []ServerReadout

	// Rate is the combined rate estimate (seconds per counter cycle):
	// the trust-weighted median of the selected servers' p̂,
	// precomputed at publish time (it does not depend on the counter).
	Rate float64

	// Counts over Servers, precomputed for consumers that only gate on
	// health: ready (past warmup), selected (truechimers), and flagged
	// falsetickers.
	ReadyCount    int
	SelectedCount int
	Falsetickers  int

	// Exchanges is the total exchange count across all servers.
	Exchanges int

	// LastTf is the host counter value of the most recent exchange fed
	// to any server: the staleness anchor of the whole combine. Age
	// converts it to seconds.
	LastTf uint64

	// Degradation ladder (see ladder.go). BaseState is the writer-side
	// rung at publish time; State(T) caps it by the readout's age.
	// Health is the serving summary of the voting set (frozen at the
	// last trusted combine while nothing votes); VotingCount is the
	// number of servers behind it. In BaseState < StateDegraded the
	// published Rate is the frozen holdover rate, not a live median.
	BaseState   State
	synced      bool // Synced's answer, decided once at publish time (shares BaseState's word)
	Health      Health
	VotingCount int

	// HoldoverAfter and UnsyncedAfter are the read-time staleness caps
	// (seconds of readout age), copied from the configuration so State
	// stays a pure function of the snapshot.
	HoldoverAfter float64
	UnsyncedAfter float64

	// voters is the read path's whole input: one entry per positive-
	// weight server, in server order, in a slot of its own, so that
	// AbsoluteTime walks one contiguous list instead of testing every
	// row of Servers.
	voters []voter

	// memo is the piece of the voters' weighted median around the first
	// read (memo.go): empty at publication, filled once by the first
	// AbsoluteTime, the one thing written after the store.
	memo readMemo
}

// State returns the degradation-ladder state at counter value T: the
// published base state capped by the readout's age. A combine whose
// newest exchange is older than HoldoverAfter cannot claim better than
// HOLDOVER no matter how healthy it looked when it was published —
// this is the only ladder path that works during a *total* outage,
// when no exchange arrives to move the writer-side state at all. Past
// UnsyncedAfter the frozen drift bound itself is stale and the clock
// reports UNSYNCED.
//
//repro:readpath
func (r *Readout) State(T uint64) State {
	if r.BaseState == StateUnsynced {
		return StateUnsynced
	}
	age := r.Age(T)
	switch {
	case age > r.UnsyncedAfter:
		return StateUnsynced
	case age > r.HoldoverAfter && r.BaseState > StateHoldover:
		return StateHoldover
	}
	return r.BaseState
}

// readScratch bounds the stack scratch of the lock-free read path;
// ensembles larger than this still read correctly but the median
// scratch spills to the heap. Real ensembles are single digits.
const readScratch = 16

// AbsoluteTime reads the combined absolute clock at a counter value:
// the weighted median of the positive-weight servers' absolute clocks.
// With three or more comparable servers, a faulty minority — even one
// whose members agree with each other — is excluded by the selection
// stage and outvoted by the median. It evaluates the published voter
// list and nothing else; with no voter at all (before any exchange)
// the first server's clock is returned.
//
// The answer is sortedTime's, bit for bit. The first call on a readout
// records the median's piece around its T in the read memo (memo.go);
// from then on a read inside that piece evaluates one voter, and every
// other read is sortedTime itself.
//
// A read inside the piece makes no call: one atomic load, the range
// test, and the voter's clock, which the compiler inlines. It spells
// voter.at's expression because at itself is just over the inlining
// budget. Everything else is readRest, out of line.
//
//repro:readpath
//repro:hotpath
func (r *Readout) AbsoluteTime(T uint64) float64 {
	m := &r.memo
	if m.state.Load() == memoReady && m.lo <= T && T <= m.hi {
		return m.one.clock.AbsoluteTime(T) - m.one.corr
	}
	return r.readRest(T)
}

// readRest is AbsoluteTime's out-of-line rest: the memo's fill on a
// readout's first read, and the sorted read outside the piece or without
// one.
//
//repro:readpath
//repro:hotpath
func (r *Readout) readRest(T uint64) float64 {
	s := r.memo.state.Load()
	if s == memoEmpty {
		s = r.memo.fill(r.voters, T)
	}
	if s == memoReady && r.memo.lo <= T && T <= r.memo.hi {
		return r.memo.one.at(T)
	}
	return r.sortedTime(T)
}

// sortedTime is the combined read's definition: every voter evaluated,
// stably sorted, and the weighted median walked. It is AbsoluteTime's
// fallback outside the memo's piece and the memo's test oracle.
//
//repro:readpath
//repro:hotpath
func (r *Readout) sortedTime(T uint64) float64 {
	var buf [readScratch]wv
	items, total := buf[:0], 0.0
	for i := range r.voters {
		v := &r.voters[i]
		//repro:alloc-ok append into the readScratch stack buffer; spills to the heap only past readScratch servers (documented above)
		items = append(items, wv{v.at(T), v.raw})
		total += v.raw
	}
	if len(items) == 0 {
		if len(r.Servers) == 0 {
			return 0
		}
		return r.Servers[0].Clock.AbsoluteTime(T)
	}
	return medianOfItems(items, total)
}

// RateHat returns the combined rate estimate (seconds per cycle).
//
//repro:readpath
func (r *Readout) RateHat() float64 { return r.Rate }

// DifferenceSpan measures the interval between two counter readings
// with the combined difference clock (combined rate only).
//
//repro:readpath
func (r *Readout) DifferenceSpan(T1, T2 uint64) float64 {
	return timebase.CounterSpan(T1, T2, r.Rate)
}

// AgreementBound is the half-width of server k's error interval
// (agreementFactor × ErrScale): the Agreement count and any downstream
// dispersion advertisement derive from it.
//
//repro:readpath
func (r *Readout) AgreementBound(k int) float64 {
	return agreementFactor * r.Servers[k].ErrScale
}

// Agreement counts the servers whose error interval (absolute clock ±
// AgreementBound) contains the combined absolute time at counter value
// T. len(Servers) means full agreement; below a majority means the
// ensemble is running on a minority of self-consistent servers and
// should be treated with suspicion. The normalized weights drive the
// median here.
//
//repro:readpath
//repro:hotpath
func (r *Readout) Agreement(T uint64) int {
	var buf [readScratch]wv
	items, total := buf[:0], 0.0
	var vals [readScratch]float64
	vs := vals[:0]
	for k := range r.Servers {
		v := r.Servers[k].Clock.AbsoluteTime(T) - r.Servers[k].AsymCorrection
		//repro:alloc-ok append into the readScratch stack buffer; spills to the heap only past readScratch servers
		vs = append(vs, v)
		if w := r.Servers[k].Weight; w > 0 {
			//repro:alloc-ok append into the readScratch stack buffer; spills to the heap only past readScratch servers
			items = append(items, wv{v, w})
			total += w
		}
	}
	combined := 0.0
	switch {
	case len(items) > 0:
		combined = medianOfItems(items, total)
	case len(vs) > 0:
		combined = vs[0]
	}
	n := 0
	for k := range r.Servers {
		if r.Servers[k].Exchanges == 0 {
			continue
		}
		d := vs[k] - combined
		if d < 0 {
			d = -d
		}
		if d <= r.AgreementBound(k) {
			n++
		}
	}
	return n
}

// Age returns the seconds elapsed (per the combined difference clock)
// since the exchange this readout was published from — the staleness
// bound of the combine. Before any exchange it measures from the
// counter origin.
//
//repro:readpath
func (r *Readout) Age(T uint64) float64 {
	return r.DifferenceSpan(r.LastTf, T)
}

// Synced reports whether the combined clock is calibrated: at least
// one server past warmup holds positive combining weight and an offset
// estimate. Downstream NTP serving advertises unsynchronized until
// this holds.
//
//repro:readpath
func (r *Readout) Synced() bool { return r.synced }

// publish makes the current combine visible to lock-free readers: it
// derives the combining weights from the trust and selection state,
// fills one immutable slot — header, server row, voter list — in one
// pass and stores it. Called once per combine, and once at construction
// so Readout is never nil.
//
// Weights: a ready server weighs 1/errScale² while selected (or while
// selection is disabled); servers still in warmup weigh zero, and so do
// flagged falsetickers. If every ready server is excluded (a transient,
// e.g. all in readmission probation) the ready servers vote as if
// selection were off, and if no server has graduated yet, every server
// with at least one exchange weighs equally, so the combined clock is
// defined from the first packet (matching the single-clock behaviour of
// reading during warmup).
//
//repro:builder
func (e *Ensemble) publish() {
	ro := &e.pub.headers.Carve(1)[0]
	ro.Servers = e.pub.rows.Carve(len(e.members))
	ro.voters = e.pub.voters.Carve(len(e.members))[:0]
	ro.LastTf = e.lastTf
	ro.BaseState = e.base
	ro.Health = e.health
	ro.VotingCount = e.votingCount
	ro.HoldoverAfter = e.cfg.HoldoverAfter
	ro.UnsyncedAfter = e.cfg.UnsyncedAfter
	raw := e.raw // unnormalized weights, writer-owned scratch
	anySelected := false
	for k := range e.members {
		m := &e.members[k]
		sr := &ro.Servers[k]
		sr.Clock = e.clk[k]
		sr.Ready = m.ready
		sr.Selected = m.ready && m.selected
		sr.Falseticker = m.ready && !m.selected && !e.cfg.DisableSelection
		sr.IntersectStreak = m.streak
		sr.AsymmetryHint = m.asym
		sr.AsymCorrection = m.corr
		sr.ErrScale = m.errScale()
		sr.PointErrLevel = m.ewmaErr
		sr.RTTWobble = m.rttWobble
		sr.Penalty = m.penalty
		sr.Exchanges = m.count
		ro.Exchanges += m.count
		raw[k] = 0
		if sr.Ready {
			ro.ReadyCount++
			if sr.Selected || e.cfg.DisableSelection {
				raw[k] = 1 / (sr.ErrScale * sr.ErrScale)
				anySelected = true
			}
		}
		if sr.Selected {
			ro.SelectedCount++
		}
		if sr.Falseticker {
			ro.Falsetickers++
		}
	}
	if !anySelected {
		for k := range ro.Servers {
			sr := &ro.Servers[k]
			switch {
			case sr.Ready:
				raw[k] = 1 / (sr.ErrScale * sr.ErrScale)
			case ro.ReadyCount == 0 && sr.Exchanges > 0:
				raw[k] = 1
			}
		}
	}
	total := 0.0
	for _, w := range raw {
		total += w
	}
	// Normalized weights, the voter list, and the combined rate: the
	// weighted median of the voters' p̂ under the raw weights.
	items, voters := e.items[:0], ro.voters
	for k, w := range raw {
		if w > 0 {
			sr := &ro.Servers[k]
			sr.Weight = w / total
			//repro:alloc-ok append within the capacity New gave the writer's scratch: one item per server
			items = append(items, wv{sr.Clock.P, w})
			//repro:alloc-ok append within the capacity the voter slab carved: one voter per server
			voters = append(voters, voter{sr.Clock, sr.AsymCorrection, w})
			if sr.Ready && sr.Weight > 0 && sr.Clock.HaveTheta {
				ro.synced = true
			}
		}
	}
	ro.voters = voters
	switch {
	case len(items) > 0:
		ro.Rate = medianOfItems(items, total)
	case len(ro.Servers) > 0:
		ro.Rate = ro.Servers[0].Clock.P
	}
	// Holdover rate freeze: below DEGRADED the last trusted rate is
	// served; at or above it the live median becomes the new trusted
	// rate.
	if e.frozenActive() {
		ro.Rate = e.frozenRate
	} else {
		e.frozenRate = ro.Rate
	}
	e.pub.p.Store(ro)
}

// Readout returns the most recently published combined snapshot. It is
// safe to call from any goroutine at any time, including concurrently
// with the writer: the returned value is immutable and never nil.
//
//repro:readpath
func (e *Ensemble) Readout() *Readout { return e.pub.Load() }

// ensemblePub is the atomic publication slot plus the writer-owned
// slabs publication slots are carved from. publish carves from them
// under the ensemble's writer mutex; Load is wait-free from any
// goroutine.
//
// Each combine carves one header, one row of a ServerReadout per server
// and one voter list with room for every server, from three slabs
// refilled together. An N×88-byte row and an N×24-byte voter list are
// no line multiples (the 192 B header is three whole lines, and goes
// with them): cacheline.Slab carves each two slots apart, so filling a
// combine never takes a line from a reader of the live one, and spaces
// a voter list of one or two servers as if it had three. The writer
// never writes a header's read memo (the slab's make zeroes it); a
// reader writes it once, at its fill.
//
// p is the one word a combine hands from the writer's core to the
// readers', and has a line to itself: the slabs below and the ladder
// state ensemblePub is embedded after are rewritten on every exchange
// and must not invalidate the line readers poll.
type ensemblePub struct {
	_ cacheline.Pad
	//repro:polled
	p atomic.Pointer[Readout]
	_ cacheline.Pad

	headers cacheline.Slab[Readout]
	rows    cacheline.Slab[ServerReadout]
	voters  cacheline.Slab[voter]
}

// Load returns the latest published snapshot.
//
//repro:readpath
func (ep *ensemblePub) Load() *Readout { return ep.p.Load() }

// Publications returns how many combined readouts have been published,
// the one at construction included. Writer-side: call it under the same
// serialization as Process. It is what "one publication per exchange"
// is counted with, where addresses cannot tell.
func (e *Ensemble) Publications() uint64 { return e.pub.headers.Carved() }
