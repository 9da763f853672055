// Package tscclock is a from-scratch Go implementation of the robust
// software clock synchronization system of Veitch, Babu & Pásztor,
// "Robust Synchronization of Software Clocks Across the Internet"
// (IMC 2004) — the precursor of the RADclock / feed-forward clock
// family.
//
// The clock is built on a raw monotonic counter (the TSC register in the
// paper; any stable cycle counter works) and calibrated from the normal
// flow of NTP packets against a nearby stratum-1 server. Unlike the
// classic feedback-disciplined SW-NTP clock, calibration is rate-centric
// and filtering is decoupled from estimation, which makes the clock
// robust to packet loss, server outages, route changes, congestion and
// even faulty server timestamps.
//
// Two clocks are exposed, as the paper argues they must be:
//
//   - the difference clock measures time intervals with the smooth rate
//     estimate p̂ only — accurate to ~0.1 PPM, ideal below the SKM scale
//     (~1000 s);
//   - the absolute clock additionally corrects the offset estimate θ̂ —
//     accurate to tens of microseconds against a good server.
//
// Feed completed NTP exchanges to Clock.ProcessNTPExchange, or use
// MultiLive to run the whole pipeline over UDP against one or more real
// NTP servers.
package tscclock

import (
	"sync"

	"repro/internal/cacheline"
	"repro/internal/core"
)

// Options configures a Clock. Every other algorithm parameter takes the
// paper's value (core.DefaultConfig); the evaluation varies them below
// this API, and a public knob exists only where two callers differ
// (ARCHITECTURE.md, "Knobs").
type Options struct {
	// NominalPeriod is the a-priori duration of one counter cycle in
	// seconds (e.g. 1/548655270 for a 548.66 MHz TSC, or 1e-9 for a
	// nanosecond-resolution monotonic counter). Required.
	NominalPeriod float64

	// PollPeriod is the nominal NTP polling period in seconds.
	// Default: 64.
	PollPeriod float64

	// UseLocalRate enables the quasi-local rate refinement (p̂_l) and
	// linear prediction in the offset estimate.
	UseLocalRate bool
}

// buildConfig lowers Options onto the engine configuration.
func (o Options) buildConfig() core.Config {
	poll := o.PollPeriod
	if poll == 0 {
		poll = 64
	}
	cfg := core.DefaultConfig(o.NominalPeriod, poll)
	cfg.UseLocalRate = o.UseLocalRate
	return cfg
}

// Status reports the synchronization state after one exchange.
type Status struct {
	// Period is the current rate estimate p̂ (seconds per counter cycle)
	// and PeriodQuality its estimated relative error bound.
	Period        float64
	PeriodQuality float64
	// LocalPeriod is the quasi-local rate estimate; LocalValid reports
	// whether it is usable (false when the refinement is disabled).
	LocalPeriod float64
	LocalValid  bool
	// Offset is the current estimate θ̂ of the uncorrected clock's
	// offset from true time, in seconds.
	Offset float64
	// RTT is this exchange's round-trip time, MinRTT the running
	// minimum r̂, and PointError RTT − r̂ (the filter statistic).
	RTT, MinRTT, PointError float64
	// Flags describing how the exchange was used.
	Accepted            bool // packet accepted for the rate pair
	RateUpdated         bool // p̂ changed
	PoorQuality         bool // E** fallback in the offset filter
	OffsetSanity        bool // sanity check duplicated previous θ̂
	UpwardShiftDetected bool // route-change level shift detected
	ServerChanged       bool // server identity (RefID/stratum) changed
	Warmup              bool // still within the warmup phase
}

// Clock is the calibrated TSC-NTP clock. It is safe for concurrent
// use, and reads never block: the synchronization feed publishes an
// immutable read snapshot (core.Readout) through an atomic pointer
// after every exchange, and every read method is a pure function of
// the latest snapshot — no mutex is acquired on any read, under
// unbounded reader concurrency. The mutex below serializes writers
// (ProcessNTPExchange and friends) only — and lives a line away from
// sync, the word every read starts from: Lock and Unlock write mu once
// per exchange each, and would otherwise take the readers' line with
// them.
type Clock struct {
	_ cacheline.Pad
	//repro:polled
	sync *core.Sync
	_    cacheline.Pad

	mu sync.Mutex // serializes the synchronization feed, not reads
}

// New constructs a Clock.
func New(opts Options) (*Clock, error) {
	s, err := core.NewSync(opts.buildConfig())
	if err != nil {
		return nil, err
	}
	return &Clock{sync: s}, nil
}

// ProcessNTPExchange feeds one completed NTP exchange: host counter
// stamps ta (just before send) and tf (just after receive), and the
// server's receive/transmit stamps tb, te in seconds. Exchanges must be
// fed in arrival order; lost exchanges are simply never fed. An exchange
// with unusable stamps — counter stamps not increasing or out of order,
// tb or te NaN or infinite — is refused with an error and changes
// nothing, as if it had been lost.
func (c *Clock) ProcessNTPExchange(ta, tf uint64, tb, te float64) (Status, error) {
	return c.processWithIdentity(ta, tf, tb, te, core.Identity{})
}

// ProcessNTPExchangeFrom additionally carries the server's identity
// (reference ID and stratum from the NTP payload); a change of identity
// re-bases the minimum-RTT filter immediately instead of waiting out the
// level-shift detection window (the paper's Section 2.3 extension).
func (c *Clock) ProcessNTPExchangeFrom(ta, tf uint64, tb, te float64, refID uint32, stratum uint8) (Status, error) {
	return c.processWithIdentity(ta, tf, tb, te, core.Identity{RefID: refID, Stratum: stratum})
}

func (c *Clock) processWithIdentity(ta, tf uint64, tb, te float64, id core.Identity) (Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.sync.Process(core.Input{Ta: ta, Tf: tf, Tb: tb, Te: te})
	if err != nil {
		return Status{}, err
	}
	changed := c.sync.ObserveIdentity(id)
	return statusFromResult(res, changed), nil
}

// statusFromResult lowers an engine result onto the public Status; the
// single mapping shared by Clock and Ensemble.
func statusFromResult(res core.Result, serverChanged bool) Status {
	return Status{
		ServerChanged:       serverChanged,
		Period:              res.PHat,
		PeriodQuality:       res.PQuality,
		LocalPeriod:         res.PLocal,
		LocalValid:          res.PLocalValid,
		Offset:              res.ThetaHat,
		RTT:                 res.RTT,
		MinRTT:              res.RTTHat,
		PointError:          res.PointError,
		Accepted:            res.Accepted,
		RateUpdated:         res.RateUpdated,
		PoorQuality:         res.PoorQuality,
		OffsetSanity:        res.OffsetSanityTriggered,
		UpwardShiftDetected: res.UpwardShiftDetected,
		Warmup:              res.Warmup,
	}
}

// Readout returns the latest published read snapshot: an immutable
// value answering every clock read consistently, with a staleness
// bound (Readout.Age). Hold it to take several reads from one instant
// of calibration; call again to refresh. Never nil, never blocks.
//
//repro:readpath
func (c *Clock) Readout() *core.Readout { return c.sync.Readout() }

// AbsoluteTime reads the absolute clock Ca at a counter value: seconds
// on the server's timescale (the simulation origin, or the NTP era on
// the live path). Use it only when absolute timestamps are required;
// the difference clock is more accurate for intervals (Section 2.2).
// Lock-free: a pure function of the latest published readout.
//
//repro:readpath
func (c *Clock) AbsoluteTime(counter uint64) float64 {
	return c.sync.Readout().AbsoluteTime(counter)
}

// Between measures the interval between two counter readings with the
// difference clock Cd: smooth, driven only by the rate estimate, and
// the right tool for intervals below the SKM scale (~1000 s).
// Lock-free.
//
//repro:readpath
func (c *Clock) Between(c1, c2 uint64) float64 {
	return c.sync.Readout().DifferenceSpan(c1, c2)
}

// Period returns the current rate estimate (seconds per cycle).
// Lock-free.
//
//repro:readpath
func (c *Clock) Period() float64 {
	return c.sync.Readout().P
}

// Exchanges returns the number of exchanges processed. Lock-free.
//
//repro:readpath
func (c *Clock) Exchanges() int {
	return c.sync.Readout().Count
}
