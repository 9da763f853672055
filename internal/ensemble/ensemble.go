// Package ensemble combines several independently synchronized TSC-NTP
// engines — one per upstream NTP server — into a single robust software
// clock, the scale-out step beyond the paper: its algorithms make one
// server's congestion, outages and faults survivable, but a single
// upstream is still a single point of failure. Running one core engine
// per server over a shared host counter makes the per-server absolute
// clocks directly comparable (they all map the same counter value to a
// time), and an interval-intersection selection stage followed by a
// weighted-median agreement step lets faulty — even mutually agreeing —
// servers be outvoted rather than followed.
//
// Four layers:
//
//   - per-server engines: each upstream server feeds its own core.Sync,
//     so per-server filtering state (r̂, point errors, windows) never
//     mixes across paths with different RTTs and asymmetries;
//   - trust scoring: each server's combining weight is derived from the
//     engine's own quality signals — the point-error level (congestion),
//     the stability of the minimum-RTT floor (route flap), and decaying
//     penalties for sanity triggers, poor-quality fallbacks, detected
//     level shifts and server identity changes;
//   - selection: each server asserts a correctness interval — its
//     absolute clock ± a bound from its error scale — and a
//     Marzullo/NTP-select sweep finds the maximal mutually-intersecting
//     majority. Servers outside it are flagged falsetickers and must
//     re-intersect for several consecutive exchanges before re-admission
//     (hysteresis), so a lying server cannot flap in and out of the
//     vote. The reference region is sticky: the selected set's own
//     intersection keeps defining it while the set still holds a strict
//     majority of the ready servers, so honest intervals that
//     transiently balloon under congestion cannot hand a tight lying
//     minority the vote;
//   - combining: absolute time and rate are the weighted medians of the
//     *selected* servers' estimates (breakdown point 1/2 within the
//     selected set, count-based breakdown ⌈N/2⌉−1 from the selection
//     stage), with a Marzullo-style agreement count over per-server
//     error intervals as the confidence signal.
//
// Selection closes the gap the weighted median alone leaves open: the
// median's breakdown is weight-based, so two colluding servers on clean
// low-jitter paths can accumulate more than half the total weight and
// drag the combined clock without ever being flagged. The intersection
// sweep is count-based — a minority of servers, however trusted, whose
// intervals do not intersect the majority's is excluded outright.
//
// The sweep also yields a first path-asymmetry diagnostic the
// single-server engine cannot observe (paper §2.3): the signed
// disagreement of each server's absolute clock against the selected
// set's interval midpoint. A server that is systematically early or
// late against the ensemble — while healthy by every single-path signal
// — is exactly what an uncalibrated path asymmetry looks like.
//
// The per-exchange cost is one engine Process plus one combine: an O(N)
// pass over the N servers (N is the server count — single digits) that
// evaluates each ready server's clock once, takes the majority region in
// closed form while the voters' intervals all mutually intersect (the
// steady state; the sorted endpoint sweep runs only when the set is
// fractured), reclassifies, refreshes the ladder and serving health, and
// publishes exactly one immutable Readout. Nothing is sorted through a
// comparison closure and nothing is computed that no reader asked for:
// the combined absolute time and the agreement count are evaluated at
// read time from the published readout, with zero allocations.
//
// What a read touches is laid out for it. Each Readout carries, beside
// the per-server rows, a voter list: one {clock, correction, raw weight}
// entry per positive-weight server, contiguous, in a slab slot of its
// own. Readout.AbsoluteTime — the call behind every Now() and every
// downstream reply — loads the published pointer, the header, that one
// slot and the voters' engine readouts, evaluates each voter's clock
// and takes the median; it never walks the rows, tests a weight or
// steps over a convicted server (the rows serve Agreement, the
// diagnostics and the no-voter fallback). Synced is decided once per
// publication the same way.
//
// The measured budget (PERF.md "PR 13", "PR 16"): at five servers the
// combine costs ≈ 370 ns against the engine step's ≈ 460, publication
// the largest stage of it — 720 B of fresh memory per combine (a 160 B
// header, five 88 B rows, five 24 B voter entries) of the ≈ 1 kB an
// exchange allocates in all — and BenchmarkEnsembleStages splits it into
// observe / select / ladder / publish lines; fresh memory, not code, is
// most of what a publication costs. A combined read with three voters is
// ≈ 15 ns, beside a writer publishing 20 000 times a second too.
//
//repro:deterministic
package ensemble

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
)

// Config configures an ensemble. A field exists only where two callers
// need different values (ARCHITECTURE.md, "Knobs"); every other tuning
// value is one of the constants below.
type Config struct {
	// Engines carries one engine configuration per upstream server. At
	// least one is required.
	Engines []core.Config

	// DisableSelection turns the interval-intersection stage off: the
	// weighted median runs over every ready server, as the pre-selection
	// combiner did. For ablation and experiments.
	DisableSelection bool

	// AsymCorrection promotes the per-server asymmetry hints from
	// diagnostics to a damped first-order offset correction (see
	// asym.go): each selected server's absolute clock is shifted by an
	// EWMA of its signed disagreement with the selected-set midpoint
	// before it enters the combining median, pulling systematically
	// early or late servers — what uncalibrated path asymmetry looks
	// like from the outside (paper §2.3) — onto the ensemble consensus.
	// Off by default; the combined clock is bit-identical to the
	// uncorrected combiner while disabled.
	AsymCorrection bool

	// HoldoverAfter and UnsyncedAfter are read-time staleness caps in
	// seconds of combined-readout age: past HoldoverAfter the published
	// state is capped at StateHoldover, past UnsyncedAfter at
	// StateUnsynced. Defaults scale with the largest engine polling
	// period: max(8·poll, 60) and max(128·poll, 3600).
	HoldoverAfter float64
	UnsyncedAfter float64
}

// The trust, selection and ladder tuning: one value each, so constants.
// The float64 ones are typed so that every product they enter is a
// run-time multiplication with its own rounding — the evaluation's
// results are pinned bit for bit to that arithmetic.
const (
	// penaltyDecay is the per-exchange decay factor of a server's
	// accumulated event penalty: an isolated sanity event fades in a few
	// tens of exchanges.
	penaltyDecay float64 = 0.9

	// errAlpha is the EWMA gain of the point-error level and RTT-floor
	// wobble trackers.
	errAlpha float64 = 1.0 / 8

	// agreementFactor scales the per-server error intervals used by both
	// the selection sweep and the Marzullo-style agreement count.
	agreementFactor float64 = 4

	// readmitAfter is the number of consecutive selection sweeps a
	// flagged falseticker must intersect the majority before being
	// re-admitted to the selected set (hysteresis: one lucky overlap
	// does not restore the vote).
	readmitAfter = 8

	// asymAlpha is the EWMA gain of the asymmetry-correction tracker:
	// the damping that keeps the correction a contraction (one noisy
	// sweep moves it by at most asymAlpha of the disturbance).
	asymAlpha float64 = 1.0 / 64

	// asymClampFrac bounds the applied correction to this fraction of
	// the server's correctness-interval half-width
	// (agreementFactor·noiseScale): a correction can re-center a server
	// within its own claim but never push it across it, so a wrong
	// correction degrades accuracy without being able to manufacture a
	// falseticker or flip a vote.
	asymClampFrac float64 = 0.5

	// recoverAfter is the ladder's upgrade hysteresis: consecutive
	// exchanges at a better level before an upgrade takes.
	recoverAfter = 3

	// staleAfterPolls is the per-server freshness bound in polling
	// periods: a server whose last exchange is older loses its vote.
	staleAfterPolls = 8
)

func (c *Config) setDefaults() {
	maxPoll := 0.0
	for _, ec := range c.Engines {
		if ec.PollPeriod > maxPoll {
			maxPoll = ec.PollPeriod
		}
	}
	if c.HoldoverAfter == 0 {
		c.HoldoverAfter = math.Max(8*maxPoll, 60)
	}
	if c.UnsyncedAfter == 0 {
		c.UnsyncedAfter = math.Max(128*maxPoll, 3600)
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Engines) == 0 {
		return fmt.Errorf("ensemble: at least one engine config required")
	}
	// Zero means "take the default"; anything else must lie in range.
	// The inverted comparisons are NaN-safe, like core's validation.
	if c.HoldoverAfter != 0 && !(c.HoldoverAfter > 0) {
		return fmt.Errorf("ensemble: HoldoverAfter %v must be positive", c.HoldoverAfter)
	}
	if c.UnsyncedAfter != 0 && !(c.UnsyncedAfter > 0) {
		return fmt.Errorf("ensemble: UnsyncedAfter %v must be positive", c.UnsyncedAfter)
	}
	if c.HoldoverAfter > 0 && c.UnsyncedAfter > 0 && c.UnsyncedAfter < c.HoldoverAfter {
		return fmt.Errorf("ensemble: UnsyncedAfter %v below HoldoverAfter %v", c.UnsyncedAfter, c.HoldoverAfter)
	}
	for i, ec := range c.Engines {
		if err := ec.Validate(); err != nil {
			return fmt.Errorf("ensemble: engine %d: %w", i, err)
		}
	}
	return nil
}

// member is the per-server trust and selection state.
type member struct {
	count     int
	ready     bool    // past warmup: the engine's estimates are trusted
	delta     float64 // the engine's δ: the floor of the error scale
	ewmaErr   float64 // EWMA of the point error (congestion level), s
	lastRHat  float64
	rttWobble float64 // EWMA of |Δr̂| (minimum-RTT floor stability), s
	penalty   float64 // decaying event penalty, s

	selected bool    // in the selected (truechimer) set
	streak   int     // consecutive sweeps intersecting the majority
	asym     float64 // signed clock error vs the selected-set midpoint, s

	// Asymmetry correction (see asym.go): corrEwma is the damped
	// tracker of the asymmetry hint, corr the clamped correction the
	// combine paths actually subtract (zero while the gate is closed).
	corrEwma float64
	corr     float64
}

// observe folds one engine result into the trust state.
func (m *member) observe(ec *core.Config, res *core.Result) {
	m.count++
	if m.count == 1 {
		m.ewmaErr = res.PointError
		m.lastRHat = res.RTTHat
	}
	m.ewmaErr = flushTiny(m.ewmaErr + errAlpha*(res.PointError-m.ewmaErr))
	d := math.Abs(res.RTTHat - m.lastRHat)
	m.rttWobble = flushTiny(m.rttWobble + errAlpha*(d-m.rttWobble))
	m.lastRHat = res.RTTHat

	// Event penalties, in seconds on the same scale as the thresholds
	// that fired them. The offset sanity check is the strongest signal —
	// the server's timestamps contradicted its own recent history by
	// more than E_s — so it carries the E_s scale; a detected level
	// shift means the path (and so the asymmetry baked into θ̂) changed.
	m.penalty = flushTiny(m.penalty * penaltyDecay)
	if res.PoorQuality {
		m.penalty += ec.E()
	}
	if res.OffsetSanityTriggered || res.RateSanityTriggered {
		m.penalty += core.OffsetSanity
	}
	if res.UpwardShiftDetected {
		m.penalty += ec.ShiftThresholdFactor * ec.E()
	}
	if !m.ready && !res.Warmup {
		// Graduation: enter the selected set on trust — the very next
		// sweep evicts the server if its interval misses the majority.
		m.selected = true
		m.streak = 0
	}
	m.ready = !res.Warmup
}

// tinySeconds is where the trust trackers stop decaying and read zero.
// Left alone, a geometric decay between events — r̂ moves rarely, sanity
// events more rarely still — walks through 300 decades into the
// denormal range and parks on its smallest value for good, and every
// later multiplication of it takes a microcode assist (≈ 40 ns each on
// the benchmark box, about one per exchange on its 14-day trace). The
// threshold is far below the resolution of any sum these terms enter
// (errScale ≥ δ, microseconds), so no weight, interval or decision
// moves by a bit; only the ServerReadout diagnostics read 0 instead of
// 1e-323.
const tinySeconds = 1e-30

func flushTiny(x float64) float64 {
	if x < tinySeconds {
		return 0
	}
	return x
}

// errScale is the server's current error scale in seconds: the basis of
// the combining weight (∝ 1/errScale²) and the agreement interval.
func (m *member) errScale() float64 {
	return m.delta + m.ewmaErr + m.rttWobble + m.penalty
}

// noiseScale is the error scale without the event penalty: the width of
// the server's correctness claim in the selection sweep. Penalties
// measure distrust, not measurement uncertainty — folding them into the
// interval would let a misbehaving server widen its own claim exactly
// when it should be easiest to convict (its sanity events would balloon
// the interval until it overlaps any majority).
func (m *member) noiseScale() float64 {
	return m.delta + m.ewmaErr + m.rttWobble
}

// endpoint is one interval edge in the selection sweep.
type endpoint struct {
	x float64
	d int8 // +1 interval start, −1 interval end
}

// Ensemble runs one synchronization engine per upstream server over a
// shared host counter and combines their clocks. It is not safe for
// concurrent use on the write side; the public tscclock.Ensemble wrapper
// adds the writer lock. Every read goes through the published Readout,
// which is safe from any goroutine.
type Ensemble struct {
	cfg     Config
	engines []*core.Sync
	members []member

	// clk[k] is engine k's current published readout, refreshed whenever
	// that engine runs. The combine evaluates clocks, freshness and
	// identity through it: only the exchange's own server can have
	// changed since the last combine.
	clk []*core.Readout

	// Correctness-interval bounds of the ready servers at the current
	// selection sweep.
	lo []float64
	hi []float64

	// publish's scratch: the unnormalized weights of the combine being
	// published, and the rate median's items.
	raw   []float64
	items []wv

	// Degradation ladder state (see ladder.go): the writer-side rung,
	// the recovery hysteresis streak, whether the combine was ever
	// trusted (gates HOLDOVER vs UNSYNCED), the rate frozen at the last
	// trusted combine, the serving health summary, and the voter count.
	base        State
	upStreak    int
	everTrusted bool
	frozenRate  float64
	health      Health
	votingCount int

	// Lock-free publication (see readout.go): lastTf anchors the
	// combined readout's staleness, pub holds the published snapshot.
	lastTf uint64
	pub    ensemblePub
}

// New constructs an ensemble from one engine configuration per server.
func New(cfg Config) (*Ensemble, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(cfg.Engines)
	e := &Ensemble{
		cfg:     cfg,
		engines: make([]*core.Sync, n),
		members: make([]member, n),
		clk:     make([]*core.Readout, n),
		lo:      make([]float64, n),
		hi:      make([]float64, n),
		raw:     make([]float64, n),
		items:   make([]wv, 0, n),
	}
	for i, ec := range cfg.Engines {
		s, err := core.NewSync(ec)
		if err != nil {
			return nil, fmt.Errorf("ensemble: engine %d: %w", i, err)
		}
		e.engines[i] = s
		e.clk[i] = s.Readout()
		e.members[i].delta = ec.Delta
	}
	e.publish()
	return e, nil
}

// Size returns the number of servers (engines).
func (e *Ensemble) Size() int { return len(e.engines) }

// Process feeds one completed exchange with server k — without identity
// data, as simulated feeds and replayed stamp traces have none; see
// ProcessFrom.
//
//repro:hotpath
func (e *Ensemble) Process(server int, in core.Input) (core.Result, error) {
	res, _, err := e.ProcessFrom(server, in, core.Identity{})
	return res, err
}

// ProcessFrom feeds one completed exchange with server k, together with
// the identity (reference ID and stratum) the reply carried — the zero
// Identity when there is none — to that server's engine, updates the
// server's trust state, and runs the combine once at the exchange's
// receive stamp, publishing exactly one Readout. changed reports a
// detected identity change: that engine's RTT filter is re-based and
// the server takes a trust penalty, so the combined clock leans on the
// other servers until the new path proves itself. Exchanges must arrive
// in order per server; cross-server ordering is unconstrained.
//
//repro:hotpath
func (e *Ensemble) ProcessFrom(server int, in core.Input, id core.Identity) (res core.Result, changed bool, err error) {
	if changed, err = e.apply(server, in, id, &res); err != nil {
		return res, false, err
	}
	e.combine(in.Tf)
	return res, changed, nil
}

// BatchExchange is one completed exchange addressed to its server, the
// unit of ProcessBatch. Ident is the identity the reply carried (zero:
// none).
type BatchExchange struct {
	Server int
	In     core.Input
	Ident  core.Identity
}

// ProcessBatch feeds a batch of completed exchanges — e.g. one poll
// round's worth, arriving together from a batched receive loop — and
// runs the combine ONCE for the whole batch instead of once per
// exchange. Engine and trust updates are identical to calling
// ProcessFrom per exchange (same engines, same order, so per-server
// in-order delivery is preserved); only the combine — selection,
// asymmetry promotion, ladder and publication — is amortized, evaluated
// at the latest receive stamp in the batch. Cache locality is the other
// half: the engines' state is walked back-to-back while hot, then the
// member/selection arrays once, instead of interleaving the two per
// exchange.
//
// On an engine error the remaining exchanges are not applied (the
// caller cannot know which inputs a partial batch consumed otherwise),
// but the combine still runs over what was applied, so the published
// readout never lags the engine state.
//
//repro:hotpath
func (e *Ensemble) ProcessBatch(batch []BatchExchange) error {
	maxTf, applied := uint64(0), 0
	var procErr error
	var res core.Result // the per-exchange results are the engines' business here
	for i := range batch {
		b := &batch[i]
		if _, err := e.apply(b.Server, b.In, b.Ident, &res); err != nil {
			procErr = err
			break
		}
		if b.In.Tf > maxTf {
			maxTf = b.In.Tf
		}
		applied++
	}
	if applied > 0 {
		e.combine(maxTf)
	}
	return procErr
}

// apply feeds one exchange to its server's engine — stamps first, then
// the identity, mirroring core.Sync's Process/ObserveIdentity order —
// and folds the engine's result, left in *res, into that server's trust
// state. It publishes nothing: the combine that follows is the caller's.
func (e *Ensemble) apply(server int, in core.Input, id core.Identity, res *core.Result) (changed bool, err error) {
	if server < 0 || server >= len(e.engines) {
		//repro:alloc-ok rejected-input error path: allocates only for out-of-range server indices
		return false, fmt.Errorf("ensemble: server %d out of range [0,%d)", server, len(e.engines))
	}
	eng := e.engines[server]
	if *res, err = eng.Process(in); err != nil {
		return false, err
	}
	changed = eng.ObserveIdentity(id)
	e.clk[server] = eng.Readout()
	m := &e.members[server]
	m.observe(&e.cfg.Engines[server], res)
	if changed {
		m.penalty += core.OffsetSanity
	}
	return changed, nil
}

// combine runs the combine stages once at counter value T, the receive
// stamp of the newest applied exchange: selection, asymmetry promotion,
// ladder and serving health, and the one publication. Process and
// ProcessBatch share it, so a batch of one is a Process.
func (e *Ensemble) combine(T uint64) {
	if !e.cfg.DisableSelection {
		e.updateSelection(T)
	}
	if e.cfg.AsymCorrection {
		e.updateAsymCorrection()
	}
	e.lastTf = T
	e.updateLadder()
	e.publish()
}

// updateSelection runs one Marzullo/NTP-select pass at counter value T:
// every ready server asserts the correctness interval
// [Ca_k(T) − bound_k, Ca_k(T) + bound_k] with bound_k =
// agreementFactor·noiseScale_k, the majority region is found, and each
// server is classified by whether its interval reaches it.
// Falsetickers re-enter only after readmitAfter consecutive
// intersecting sweeps.
//
// The region is *sticky*: while the currently selected set's intervals
// still mutually intersect in a region backed by a strict majority of
// the ready servers, that incumbent region is the reference, and
// flagged servers only rebuild their re-admission streaks against it.
// Only when the incumbent set fractures does the full Marzullo sweep
// over every ready server decide afresh. Without stickiness, an honest
// server whose interval transiently balloons (a congestion episode
// inflates its noise scale) intersects everything — and two such wide
// intervals can hand a tight-but-lying minority a spurious maximal
// overlap, evicting the remaining honest servers. A ballooned interval
// widens a claim; it should not move the vote.
func (e *Ensemble) updateSelection(T uint64) {
	// Correctness intervals of every ready server: one clock evaluation
	// each, the only ones the write path makes.
	nReady := 0
	for k := range e.members {
		m := &e.members[k]
		if !m.ready {
			continue
		}
		nReady++
		c := e.clk[k].AbsoluteTime(T)
		bound := agreementFactor * m.noiseScale()
		e.lo[k] = c - bound
		e.hi[k] = c + bound
	}
	if nReady == 0 {
		return
	}
	if nReady == 1 {
		// A lone calibrated server cannot be outvoted; it is the
		// selected set, and the midpoint is its own clock.
		for k := range e.members {
			if m := &e.members[k]; m.ready {
				m.selected = true
				m.asym = 0
			}
		}
		return
	}

	// Pass 1: the incumbent region. Pass 2, on fracture: every ready
	// server votes afresh.
	bestLo, bestHi, ok := e.region(nReady, true)
	if !ok {
		bestLo, bestHi, ok = e.region(nReady, false)
	}
	if !ok {
		// No strict majority intersects: there is no evidence to
		// convict anyone, so the classification stands (NTP's select
		// likewise reports no survivors rather than guessing).
		return
	}

	// Classification is asymmetric, and deliberately so.
	//
	// Eviction is interval-based and immediate: a selected server stays
	// only while its correctness interval still reaches the region, so
	// an honest server whose interval widens under congestion keeps its
	// seat (a wide claim still covers the truth it asserts).
	for k := range e.members {
		m := &e.members[k]
		if !m.ready || !m.selected {
			continue
		}
		if e.lo[k] <= bestHi && e.hi[k] >= bestLo {
			m.streak++
		} else {
			m.streak = 0
			m.selected = false
		}
	}

	// The survivors' cluster: the intersection of the still-selected
	// intervals — the tightest range every truechimer agrees contains
	// the truth (the region stands in after a mass eviction).
	iLo, iHi := e.selectedIntersection(bestLo, bestHi)

	// Re-admission is midpoint-based and slow: a flagged server builds
	// its streak only while its clock midpoint lies inside the
	// survivors' cluster, and returns after readmitAfter consecutive
	// such sweeps. Mere interval overlap is not evidence here — a lying
	// server whose own noise scale balloons during a congestion episode
	// can widen its claim until it touches any majority, but it cannot
	// move its clock into the cluster without actually agreeing.
	readmitted := false
	for k := range e.members {
		m := &e.members[k]
		if !m.ready || m.selected {
			continue
		}
		if mid := (e.lo[k] + e.hi[k]) / 2; iLo <= mid && mid <= iHi {
			m.streak++
			if m.streak >= readmitAfter {
				m.selected = true
				readmitted = true
			}
		} else {
			m.streak = 0
		}
	}
	if readmitted {
		// The cluster narrows to count the returning servers.
		iLo, iHi = e.selectedIntersection(bestLo, bestHi)
	}

	// Selected-set midpoint: the center of the survivors' cluster, the
	// ensemble's best single point of truth. Each ready server's signed
	// disagreement against it is the asymmetry hint: a persistent bias
	// here, on a server healthy by every single-path signal, is what an
	// uncalibrated path asymmetry error looks like from the outside
	// (paper §2.3).
	mid := (iLo + iHi) / 2
	for k := range e.members {
		if m := &e.members[k]; m.ready {
			m.asym = (e.lo[k]+e.hi[k])/2 - mid
		}
	}
}

// selectedIntersection returns the intersection of the ready selected
// servers' intervals, falling back to the given region when no selected
// interval remains or the intersection is empty.
func (e *Ensemble) selectedIntersection(regionLo, regionHi float64) (float64, float64) {
	iLo, iHi := math.Inf(-1), math.Inf(1)
	any := false
	for k := range e.members {
		if m := &e.members[k]; m.ready && m.selected {
			any = true
			iLo = max(iLo, e.lo[k])
			iHi = min(iHi, e.hi[k])
		}
	}
	if !any || iLo > iHi {
		return regionLo, regionHi
	}
	return iLo, iHi
}

// uninformativeWidthFactor disqualifies ballooned intervals from voting
// in the fresh (fallback) pass: an interval wider than this multiple
// of the median ready interval width spans every camp at the decision
// scale, so counting it only inflates overlap everywhere — including
// around a tight lying minority. Such a server is still classified
// against the region; it just cannot help pick it.
const uninformativeWidthFactor = 4

// voter reports whether server k's interval votes in a region pass:
// ready, selected when only the incumbent set votes, and no wider than
// widthCap.
func (e *Ensemble) voter(k int, selectedOnly bool, widthCap float64) bool {
	m := &e.members[k]
	return m.ready && (m.selected || !selectedOnly) && !(e.hi[k]-e.lo[k] > widthCap)
}

// region returns the maximal-overlap region of the ready servers'
// intervals (e.lo/e.hi) — restricted to the currently selected set when
// selectedOnly — as Marzullo's endpoint sweep defines it: the leftmost
// stretch covered by the largest number of intervals, touching
// intervals counting as intersecting. ok requires that maximal overlap
// to be a strict majority of ALL nReady ready servers, so the selected
// set defines the region only while it can still muster that majority
// by itself. The fresh pass (selectedOnly false) additionally excludes
// uninformative ballooned intervals from voting.
//
// While the voters all mutually intersect — the steady state — the
// sweep's answer has a closed form: every voter covers [max lo, min hi]
// and no point outside it, so that is the region and the voter count is
// the overlap. The sorted sweep runs only over a fractured set.
func (e *Ensemble) region(nReady int, selectedOnly bool) (lo, hi float64, ok bool) {
	widthCap := math.Inf(1)
	if !selectedOnly {
		var wbuf [readScratch]float64
		widths := wbuf[:0]
		for k := range e.members {
			if e.members[k].ready {
				//repro:alloc-ok append into the readScratch stack buffer; spills to the heap only past readScratch servers
				widths = append(widths, e.hi[k]-e.lo[k])
			}
		}
		slices.Sort(widths)
		widthCap = uninformativeWidthFactor * widths[len(widths)/2]
	}

	voters := 0
	lo, hi = math.Inf(-1), math.Inf(1)
	for k := range e.members {
		if e.voter(k, selectedOnly, widthCap) {
			voters++
			lo = max(lo, e.lo[k])
			hi = min(hi, e.hi[k])
		}
	}
	if lo <= hi {
		return lo, hi, voters > nReady/2
	}

	// Fractured: sweep the interval endpoints in order, starts before
	// ends at equal positions so touching intervals count as
	// intersecting. Insertion sort: the set is single digits, and a
	// comparison closure costs more than the sort.
	var ebuf [2 * readScratch]endpoint
	eps := ebuf[:0]
	for k := range e.members {
		if e.voter(k, selectedOnly, widthCap) {
			//repro:alloc-ok append into the 2·readScratch stack buffer; spills to the heap only past readScratch servers
			eps = append(eps, endpoint{x: e.lo[k], d: 1}, endpoint{x: e.hi[k], d: -1})
		}
	}
	for i := 1; i < len(eps); i++ {
		p, j := eps[i], i
		for ; j > 0 && (p.x < eps[j-1].x || (p.x == eps[j-1].x && p.d > eps[j-1].d)); j-- {
			eps[j] = eps[j-1]
		}
		eps[j] = p
	}
	// A new maximum can only appear at a start, and a start is never the
	// last endpoint, so eps[i+1] is always valid there.
	cnt, best := 0, 0
	for i := range eps {
		if eps[i].d > 0 {
			cnt++
			if cnt > best {
				best = cnt
				lo = eps[i].x
				hi = eps[i+1].x
			}
		} else {
			cnt--
		}
	}
	return lo, hi, best > nReady/2
}

// wv is one (value, weight) pair of the weighted median.
type wv struct{ v, w float64 }

// medianOfItems returns the weighted median of positive-weight items:
// the value at which the cumulative weight reaches half the total. When
// the boundary is hit exactly — as with two equally weighted servers —
// the two straddling values are averaged, so the combined clock lands
// between them instead of on whichever reads earlier. The breakdown
// point is 1/2: entries holding less than half the total weight cannot
// move the result beyond the others' values.
//
// It is the single median behind the published rate and every readout
// read. items must be non-empty with positive weights summing to total;
// it is sorted in place, by a stable insertion sort — the input is one
// item per server, and a comparison closure costs more than the sort.
func medianOfItems(items []wv, total float64) float64 {
	for i := 1; i < len(items); i++ {
		it, j := items[i], i
		for ; j > 0 && it.v < items[j-1].v; j-- {
			items[j] = items[j-1]
		}
		items[j] = it
	}
	half := total / 2
	acc := 0.0
	for i := range items {
		acc += items[i].w
		if acc == half {
			// Exactly at the half-weight boundary: the median lies
			// between this value and the next positive-weight one.
			// i+1 is in range — acc == total/2 < total means weight
			// remains, and every retained item has positive weight.
			return (items[i].v + items[i+1].v) / 2
		}
		if acc > half {
			return items[i].v
		}
	}
	return items[len(items)-1].v
}
