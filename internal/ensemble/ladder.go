package ensemble

// The degradation ladder: an explicit health state machine for the
// combined clock, driven by how many servers currently back the vote
// and how stale the combine has become. The paper's robustness story is
// that p̂_l stays trustworthy through long reachability gaps (§5–6); the
// ladder is where the ensemble *acts* on that — instead of a binary
// synced/unsynced, the combined clock walks
//
//	SYNCED ── quorum lost ──▶ DEGRADED ── last voter lost ──▶ HOLDOVER
//	                                                            │
//	   ◀───────────── hysteresis recovery ◀───────────  staleness cap
//	                                                            ▼
//	                                                        UNSYNCED
//
// with asymmetric transitions: downgrades are immediate (stale trust is
// dangerous trust), upgrades require recoverAfter consecutive exchanges
// at the better level (one lucky packet after an outage must not
// re-advertise full health). In HOLDOVER the combined rate is frozen at
// the last trusted value — the whole point of a calibrated p̂_l is that
// coasting on it is sound — and downstream serving grows its advertised
// root dispersion at the frozen DriftBound instead of re-advertising a
// live error estimate it no longer has.
//
// Two paths lead into HOLDOVER and both matter: the writer-side path
// (exchanges still arrive but no server is fit to vote — mass eviction,
// a stale majority) moves the base state itself, while a total outage
// stops Process entirely, so no writer transition can happen; there the
// *read-time* State(T) method caps the published base state by the
// readout's age. Writers freeze the rate, readers apply staleness —
// between them every failure mode lands on the ladder.

import (
	"fmt"
	"math"
)

// State is a rung of the degradation ladder. Order matters: larger is
// healthier, so downgrades are "<" and staleness caps are min().
type State uint8

const (
	// StateUnsynced: no trusted calibration — never synced, or held
	// over so long the frozen rate's drift bound no longer says
	// anything useful. Serving advertises unsynchronized.
	StateUnsynced State = iota
	// StateHoldover: no server currently backs the vote; the combined
	// clock coasts on the frozen rate within its drift bound.
	StateHoldover
	// StateDegraded: at least one voting server, but not a strict
	// majority of the configured ones — running without the count-based
	// breakdown guarantee of the selection stage.
	StateDegraded
	// StateSynced: a strict majority of fresh, selected servers.
	StateSynced
)

// String returns the conventional all-caps state name.
func (s State) String() string {
	switch s {
	case StateUnsynced:
		return "UNSYNCED"
	case StateHoldover:
		return "HOLDOVER"
	case StateDegraded:
		return "DEGRADED"
	case StateSynced:
		return "SYNCED"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Stratum values mirroring internal/ntp (duplicated rather than
// imported: ensemble must not depend on the wire layer).
const (
	deadChainStratum = 15 // a chain at or above this is unsynchronized
	unsyncedStratum  = 16
)

// holdoverDriftFloor is the minimum advertised drift bound in HOLDOVER,
// seconds per second: even a superbly calibrated p̂_l is one thermal
// event away from ~1 PPM, so the advertised dispersion never grows
// slower than that.
const holdoverDriftFloor = 1e-6

// Health is the serving-facing summary of the voting set, refreshed by
// every combine that leaves at least one voter and frozen otherwise —
// in HOLDOVER the advertised stratum, root delay and drift bound are
// deliberately those of the last trusted combine.
type Health struct {
	// Stratum is the stratum the combined clock advertises downstream:
	// one below the best voting upstream, 2 when no voter reports an
	// identity (simulated feeds), unsyncedStratum when every voting
	// upstream sits on a dead chain.
	Stratum uint8
	// AnyIdent reports whether any voter has an observed identity.
	AnyIdent bool
	// AllDeadChain: every identified voter advertises stratum ≥ 15 —
	// plausible stamps hanging off unsynchronized chains. The relay
	// must propagate that, whatever the ladder says.
	AllDeadChain bool
	// RootDelay is the minimum r̂ across voters (s).
	RootDelay float64
	// ErrScale is the worst voter error scale (s): the dispersion base.
	ErrScale float64
	// DriftBound is the holdover drift rate (s/s): the worst voting
	// p̂ quality, floored at holdoverDriftFloor. Dispersion grown at
	// this rate bounds the frozen clock's error while coasting.
	DriftBound float64
}

// engineFresh reports whether server k's engine readout is recent
// enough to vote: its last exchange lies within staleAfterPolls polling
// periods of the ensemble's newest exchange, measured with the engine's
// own rate. A server that stopped answering keeps its last calibration
// (the engine coasts) but loses its vote — voting with week-old
// evidence is how a dead majority masks a live fault.
func (e *Ensemble) engineFresh(k int) bool {
	r := e.clk[k]
	if r.LastTf >= e.lastTf {
		return true
	}
	age := float64(e.lastTf-r.LastTf) * r.P
	return age <= staleAfterPolls*e.cfg.Engines[k].PollPeriod
}

// frozenActive reports whether reads must serve the frozen holdover
// rate instead of the live weighted median.
func (e *Ensemble) frozenActive() bool {
	return e.everTrusted && e.base < StateDegraded
}

// updateLadder reclassifies the combined clock after one exchange: who
// votes, what the voters say about the serving health, and which rung
// that puts the clock on. Called with e.lastTf already advanced, before
// publish.
func (e *Ensemble) updateLadder() {
	// One pass decides each server's vote and folds the voters into the
	// serving summary. The summary is only installed while at least one
	// server votes; the last value survives into HOLDOVER untouched.
	voting := 0
	h := Health{RootDelay: math.Inf(1), AllDeadChain: true}
	minStratum := uint8(unsyncedStratum)
	maxPQ := 0.0
	for k := range e.members {
		m := &e.members[k]
		r := e.clk[k]
		if !(m.ready && (m.selected || e.cfg.DisableSelection) && r.HaveTheta && e.engineFresh(k)) {
			continue
		}
		voting++
		if r.IdentKnown {
			h.AnyIdent = true
			if r.Ident.Stratum < deadChainStratum {
				h.AllDeadChain = false
				if r.Ident.Stratum < minStratum {
					minStratum = r.Ident.Stratum
				}
			}
		} else {
			// Unknown identity (simulated feeds): not a dead chain.
			h.AllDeadChain = false
		}
		if r.RTTHat < h.RootDelay {
			h.RootDelay = r.RTTHat
		}
		if es := m.errScale(); es > h.ErrScale {
			h.ErrScale = es
		}
		if r.PQuality > maxPQ {
			maxPQ = r.PQuality
		}
	}
	e.votingCount = voting
	if voting > 0 {
		if math.IsInf(h.RootDelay, 1) {
			h.RootDelay = 0
		}
		switch {
		case h.AllDeadChain:
			h.Stratum = unsyncedStratum
		case h.AnyIdent && minStratum < unsyncedStratum:
			h.Stratum = minStratum + 1
		default:
			h.Stratum = 2 // identity unknown: assume stratum-1 upstreams
		}
		h.DriftBound = math.Max(maxPQ, holdoverDriftFloor)
		e.health = h
	}

	// SYNCED takes a strict majority of the configured servers.
	var candidate State
	switch {
	case voting >= len(e.members)/2+1:
		candidate = StateSynced
	case voting >= 1:
		candidate = StateDegraded
	case e.everTrusted:
		candidate = StateHoldover
	default:
		candidate = StateUnsynced
	}

	switch {
	case !e.everTrusted && candidate >= StateDegraded:
		// First trust is immediate: hysteresis guards recoveries, not
		// the initial calibration (which warmup already gates).
		e.everTrusted = true
		e.base = candidate
		e.upStreak = 0
	case candidate < e.base:
		e.base = candidate
		e.upStreak = 0
	case candidate > e.base:
		e.upStreak++
		if e.upStreak >= recoverAfter {
			e.base = candidate
			e.upStreak = 0
		}
	default:
		e.upStreak = 0
	}
}
