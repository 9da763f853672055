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

	// PenaltyDecay, ErrAlpha and AgreementFactor tune the trust scoring
	// and agreement step; zero values take the ensemble defaults.
	PenaltyDecay    float64
	ErrAlpha        float64
	AgreementFactor float64

	// ReadmitAfter is the falseticker re-admission hysteresis: the
	// number of consecutive selection sweeps a flagged server must
	// intersect the majority before it votes again. Zero takes the
	// default (8).
	ReadmitAfter int

	// DisableSelection turns the interval-intersection selection stage
	// off, reverting to the pure trust-weighted median over every ready
	// server. For ablation; leave it off in production — without
	// selection, a minority of agreeing servers holding more than half
	// the total weight can drag the combined clock.
	DisableSelection bool

	// AsymCorrection enables the damped first-order path-asymmetry
	// correction: each selected server's absolute clock is shifted by an
	// EWMA of its asymmetry hint (its signed disagreement with the
	// selected-set midpoint) before the combining median, clamped to
	// AsymClampFrac of its correctness-interval half-width and gated off
	// while the server is unselected or penalized. Off by default — the
	// combined clock is bit-identical to the uncorrected combiner while
	// disabled. AsymAlpha (default 1/64) is the EWMA gain; AsymClampFrac
	// (default 1/2) the clamp fraction.
	AsymCorrection bool
	AsymAlpha      float64
	AsymClampFrac  float64

	// MinVotingSynced is the degradation-ladder quorum: the number of
	// fresh voting servers required for the combined clock to report
	// SYNCED (fewer is DEGRADED, none is HOLDOVER). Zero takes the
	// default majority, Servers/2+1.
	MinVotingSynced int
	// RecoverAfter is the ladder's upgrade hysteresis: consecutive
	// exchanges at a better level before the state actually rises
	// (downgrades are immediate). Zero takes the default (3).
	RecoverAfter int
	// StaleAfterPolls is how many polling periods without an answer
	// cost a server its vote. Zero takes the default (8).
	StaleAfterPolls int
	// HoldoverAfter and UnsyncedAfter are the read-time staleness caps:
	// a readout older than HoldoverAfter reads as at most HOLDOVER, and
	// older than UnsyncedAfter as UNSYNCED. Zero takes the defaults
	// (8 and 128 polling periods, floored at 1 min and 1 h).
	HoldoverAfter time.Duration
	UnsyncedAfter time.Duration
}

// EnsembleStatus reports the state after one exchange through the
// ensemble: the per-server view of the exchange plus the combined
// clock's state. It is a plain value: the scalars are copied, and the
// per-server detail — selected set, asymmetry hints, the agreement
// count — is read on demand through Readout, so an exchange whose
// status nobody inspects costs nothing to report.
type EnsembleStatus struct {
	// Status is the per-server synchronization state for the exchange,
	// exactly as a single Clock would report it.
	Status

	// Server is the index of the server that served the exchange.
	Server int
	// Weight is that server's normalized combining weight after the
	// exchange. Servers still in warmup weigh 0 once any server has
	// graduated; until then every polled server weighs equally so the
	// combined clock is defined from the first exchange. Flagged
	// falsetickers also weigh 0 — except during the rare transient in
	// which *every* ready server is excluded (a mass eviction, or all
	// still in re-admission probation), when the ready servers vote as
	// if selection were off rather than leave the clock undefined.
	Weight float64
	// Rate is the combined rate estimate (seconds per counter cycle).
	Rate float64
	// Falsetickers counts ready servers currently voted out by the
	// interval-intersection stage (zero selected-set membership).
	Falsetickers int
	// State is the degradation-ladder state after this exchange
	// (writer-side: read-time staleness capping does not apply here,
	// since the exchange itself is fresh).
	State ensemble.State
	// VotingCount is the number of servers backing the combined vote:
	// ready, selected, fresh, and holding an offset estimate.
	VotingCount int

	// Readout is the combined readout this exchange published — the
	// same immutable snapshot concurrent readers see. Per server k,
	// Readout.Servers[k].Selected marks the truechimer set (ready
	// servers whose correctness intervals intersect the majority) and
	// Readout.Servers[k].AsymmetryHint is the server's signed
	// absolute-clock disagreement against the selected-set midpoint, in
	// seconds — an estimate of per-path asymmetry error that no single
	// server/path can observe about itself (paper §2.3), zero for
	// servers still in warmup. Readout.Agreement(tf) counts the servers
	// whose error intervals contain the combined absolute time at
	// counter value tf — Servers means full agreement, below a majority
	// is a red flag.
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
		Engines:          cfgs,
		PenaltyDecay:     opts.PenaltyDecay,
		ErrAlpha:         opts.ErrAlpha,
		AgreementFactor:  opts.AgreementFactor,
		ReadmitAfter:     opts.ReadmitAfter,
		DisableSelection: opts.DisableSelection,
		AsymCorrection:   opts.AsymCorrection,
		AsymAlpha:        opts.AsymAlpha,
		AsymClampFrac:    opts.AsymClampFrac,
		MinVotingSynced:  opts.MinVotingSynced,
		RecoverAfter:     opts.RecoverAfter,
		StaleAfterPolls:  opts.StaleAfterPolls,
		HoldoverAfter:    opts.HoldoverAfter.Seconds(),
		UnsyncedAfter:    opts.UnsyncedAfter.Seconds(),
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
	// The one readout this exchange published (the index was validated
	// by ProcessFrom above).
	r := e.ens.Readout()
	return EnsembleStatus{
		Status:       statusFromResult(res, changed),
		Server:       server,
		Weight:       r.Servers[server].Weight,
		Rate:         r.Rate,
		Falsetickers: r.Falsetickers,
		State:        r.BaseState,
		VotingCount:  r.VotingCount,
		Readout:      r,
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

// Weights returns the current normalized per-server combining weights
// (zero for warmup servers and flagged falsetickers; see
// EnsembleStatus.Weight for the all-excluded transient). Lock-free.
//
//repro:readpath
func (e *Ensemble) Weights() []float64 {
	return e.ens.Readout().Weights()
}

// ServerStates returns the per-server trust diagnostics. Lock-free.
//
//repro:readpath
func (e *Ensemble) ServerStates() []ensemble.ServerState {
	return e.ens.Readout().ServerStates()
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

// Health returns the serving-facing health summary of the voting set
// (frozen at the last trusted combine while no server votes). Lock-free.
//
//repro:readpath
func (e *Ensemble) Health() ensemble.Health {
	return e.ens.Readout().Health
}

// Exchanges returns the total number of exchanges processed. Lock-free.
//
//repro:readpath
func (e *Ensemble) Exchanges() int {
	return e.ens.Readout().Exchanges
}
