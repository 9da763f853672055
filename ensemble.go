package tscclock

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cacheline"
	"repro/internal/core"
	"repro/internal/ensemble"
)

// EnsembleOptions configures a multi-server ensemble clock.
type EnsembleOptions struct {
	// Servers is the number of upstream servers. Required (≥ 1).
	Servers int

	// Clock carries the per-server calibration options (every server
	// gets an identical engine; per-server state diverges with the
	// data). NominalPeriod is required, as for Clock.
	Clock Options

	// HoldoverAfter and UnsyncedAfter are the read-time staleness caps:
	// a readout older than HoldoverAfter reads as at most HOLDOVER, and
	// older than UnsyncedAfter as UNSYNCED. Zero takes the defaults
	// (8 and 128 polling periods, floored at 1 min and 1 h).
	HoldoverAfter time.Duration
	UnsyncedAfter time.Duration
}

// EnsembleStatus reports the state after one exchange through the
// ensemble: the per-server view of the exchange plus the one readout it
// published. Nothing of the combine is copied into it — the combined
// state is read on demand through Readout, so an exchange whose status
// nobody inspects costs nothing to report.
type EnsembleStatus struct {
	// Status is the per-server synchronization state for the exchange,
	// exactly as a single Clock would report it.
	Status

	// Server is the index of the server that served the exchange.
	Server int

	// Readout is the combined readout this exchange published — the
	// same immutable snapshot concurrent readers see. Readout.Servers[k]
	// is server k's one record: its normalized combining Weight (0 for
	// warmup servers once any server has graduated, and for flagged
	// falsetickers — unless every ready server is excluded, when the
	// ready servers vote as if selection were off rather than leave the
	// clock undefined), Selected (the truechimer set) and AsymmetryHint
	// (its signed absolute-clock disagreement against the selected-set
	// midpoint: a per-path asymmetry estimate no single server can make
	// about itself, paper §2.3). Readout.Rate, Falsetickers, BaseState
	// (the writer-side ladder rung) and VotingCount describe the
	// combine, and Readout.Agreement(tf) counts the servers whose error
	// intervals contain the combined absolute time at counter value tf
	// — Servers means full agreement, below a majority is a red flag.
	Readout *ensemble.Readout
}

// Ensemble is the multi-server counterpart of Clock: one calibration
// engine per upstream NTP server over a shared host counter, combined
// into a single robust clock by interval-intersection selection
// (Marzullo/NTP-select: only the largest mutually-agreeing majority
// keeps its vote, excluded falsetickers re-enter only after sustained
// re-agreement) followed by trust-weighted median agreement — so faulty
// or route-shifted servers, even ones that agree with each other, are
// outvoted rather than followed. It is safe for concurrent use, like
// Clock, and reads never block: every combine publishes an immutable
// combined readout through an atomic pointer, and every read method is
// a pure function of the latest one — no mutex on any read, safe under
// unbounded reader concurrency (the downstream NTP serving shards read
// this way). The mutex serializes the exchange feed only, and is kept a
// line away from ens, the word every read starts from (see Clock).
type Ensemble struct {
	_ cacheline.Pad
	//repro:polled
	ens *ensemble.Ensemble
	_   cacheline.Pad

	mu sync.Mutex // serializes the exchange feed, not reads
}

// NewEnsemble constructs an Ensemble.
func NewEnsemble(opts EnsembleOptions) (*Ensemble, error) {
	if opts.Servers < 1 {
		return nil, fmt.Errorf("tscclock: EnsembleOptions.Servers must be ≥ 1")
	}
	cfgs := make([]core.Config, opts.Servers)
	for i := range cfgs {
		cfgs[i] = opts.Clock.buildConfig()
	}
	ens, err := ensemble.New(ensemble.Config{
		Engines:       cfgs,
		HoldoverAfter: opts.HoldoverAfter.Seconds(),
		UnsyncedAfter: opts.UnsyncedAfter.Seconds(),
	})
	if err != nil {
		return nil, err
	}
	return &Ensemble{ens: ens}, nil
}

// Servers returns the number of upstream servers.
func (e *Ensemble) Servers() int { return e.ens.Size() }

// ProcessNTPExchange feeds one completed NTP exchange with the given
// server (stamps as for Clock.ProcessNTPExchange). Exchanges must be
// fed in arrival order per server; cross-server order is free, which is
// what staggered polling schedules produce.
func (e *Ensemble) ProcessNTPExchange(server int, ta, tf uint64, tb, te float64) (EnsembleStatus, error) {
	return e.processWithIdentity(server, ta, tf, tb, te, core.Identity{})
}

// ProcessNTPExchangeFrom additionally carries the server's identity
// (reference ID and stratum); a change re-bases that server's RTT
// filter and dents its combining weight until the new path proves
// itself.
func (e *Ensemble) ProcessNTPExchangeFrom(server int, ta, tf uint64, tb, te float64, refID uint32, stratum uint8) (EnsembleStatus, error) {
	return e.processWithIdentity(server, ta, tf, tb, te, core.Identity{RefID: refID, Stratum: stratum})
}

//repro:hotpath
func (e *Ensemble) processWithIdentity(server int, ta, tf uint64, tb, te float64, id core.Identity) (EnsembleStatus, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	res, changed, err := e.ens.ProcessFrom(server, core.Input{Ta: ta, Tf: tf, Tb: tb, Te: te}, id)
	if err != nil {
		return EnsembleStatus{}, err
	}
	return EnsembleStatus{
		Status:  statusFromResult(res, changed),
		Server:  server,
		Readout: e.ens.Readout(), // the one readout this exchange published
	}, nil
}

// Readout returns the latest published combined readout: an immutable
// snapshot of the whole combine (per-server clocks, weights, selection
// result) answering every read consistently, with a staleness bound
// (Readout.Age). Never nil, never blocks.
//
//repro:readpath
func (e *Ensemble) Readout() *ensemble.Readout { return e.ens.Readout() }

// AbsoluteTime reads the combined absolute clock at a counter value:
// the trust-weighted median of the per-server absolute clocks.
// Lock-free: a pure function of the latest published combine.
//
//repro:readpath
func (e *Ensemble) AbsoluteTime(counter uint64) float64 {
	return e.ens.Readout().AbsoluteTime(counter)
}

// Between measures the interval between two counter readings with the
// combined difference clock (combined rate only), like Clock.Between.
// Lock-free.
//
//repro:readpath
func (e *Ensemble) Between(c1, c2 uint64) float64 {
	return e.ens.Readout().DifferenceSpan(c1, c2)
}

// Period returns the combined rate estimate (seconds per cycle).
// Lock-free.
//
//repro:readpath
func (e *Ensemble) Period() float64 {
	return e.ens.Readout().RateHat()
}

// State returns the degradation-ladder state of the combined clock as
// read at the given counter value: the writer-side base state capped by
// how stale the latest combine is (older than HoldoverAfter reads as at
// most HOLDOVER, older than UnsyncedAfter as UNSYNCED). Lock-free.
//
//repro:readpath
func (e *Ensemble) State(counter uint64) ensemble.State {
	return e.ens.Readout().State(counter)
}

// Exchanges returns the total number of exchanges processed. Lock-free.
//
//repro:readpath
func (e *Ensemble) Exchanges() int {
	return e.ens.Readout().Exchanges
}
