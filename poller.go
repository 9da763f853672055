package tscclock

import (
	"context"
	"errors"
	"net"
	"os"
	"time"

	"repro/internal/ntp"
)

// Poller implements the controlled-emission extension the paper sketches
// in Section 2.3: when the synchronizer owns the packet schedule (rather
// than piggybacking on an existing NTP daemon's flow), it can poll fast
// while information is scarce and back off once calibrated, optimizing
// both convergence and server load.
//
// Policy: Min is the steady-state floor. During the engine's warmup —
// its first 32 exchanges, whose point errors are not yet trusted, when
// information is scarcest — polls are due Min/4 apart, so one server's
// warmup sends 4/Min requests per second; the recommendation itself
// (Interval) stays at Min. After warmup, double the interval on
// every quiet, good-quality exchange up to Max; fall back to Min when
// the engine signals trouble (poor quality, sanity triggers, a detected
// level shift or server change) so fresh information arrives when it is
// worth the most. Outside warmup the interval never leaves [Min, Max].
//
// Exchange errors are handled asymmetrically, and by kind. A timeout —
// the request went out and nothing came back — looks like ordinary
// packet loss, so the first few consecutive timeouts retry at Min
// (after a single loss, fresh evidence is worth the most, exactly as
// after an engine event) before persistent failure backs off
// exponentially toward Max. A hard error — resolution failure, refused
// connection, unreachable network — is not packet loss: polling faster
// cannot help, so it skips the fast retries and backs off immediately,
// which keeps a decommissioned or misconfigured server from being
// hammered at the fast rate even briefly. A kiss-of-death
// (ntp.KissError) is neither: the server answered, and what it said is
// "poll me less" — the interval goes straight to Max, no ramp. Any
// successful exchange resets the failure count. The zero value is not
// usable; use NewPoller.
type Poller struct {
	min, max time.Duration
	current  time.Duration
	failures int // consecutive exchange errors observed
}

// failFastRetries is the number of consecutive exchange timeouts
// retried at the fast Min rate before the poller starts backing off: a
// lone loss (or two) is ordinary packet loss and worth chasing, a
// longer run means the server is down and polling faster will not
// bring it back.
const failFastRetries = 2

// warmupDivisor sets the warmup poll, Min/warmupDivisor. At
// MultiLive's 64 s default Poll that is 16 s: the paper's dense-trace
// period, and twice the 8 s average that ntpd's and chrony's default
// rate limiters admit, so a public server sees no burst worth a kiss.
// The cost is 24 extra requests per server, once per engine lifetime.
const warmupDivisor = 4

// isTimeout classifies an exchange error: true for a timed-out wait
// (indistinguishable from packet loss, worth a fast retry), false for
// a hard failure (resolution, refusal, unreachability — retrying fast
// gains nothing).
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// kissOf returns the kiss-of-death err carries, or nil: the server
// answered, with a request to change behaviour rather than with time
// (see ntp.KissError).
func kissOf(err error) *ntp.KissError {
	var kiss *ntp.KissError
	errors.As(err, &kiss)
	return kiss
}

// NewPoller constructs a poller bounded by [min, max]. Defaults when
// zero: min 16 s, max 1024 s (the standard NTP polling range extended
// one notch below the 64 s default, as the paper's dense traces use).
func NewPoller(min, max time.Duration) *Poller {
	if min <= 0 {
		min = 16 * time.Second
	}
	if max <= 0 {
		max = 1024 * time.Second
	}
	if max < min {
		max = min
	}
	return &Poller{min: min, max: max, current: min}
}

// Interval returns the currently recommended polling interval.
func (p *Poller) Interval() time.Duration { return p.current }

// Observe updates the recommendation from the latest exchange outcome
// and returns the interval from the due time of the poll that produced
// it to the due time of the next poll (MultiLive.Run paces on these
// deadlines, so the exchange's own duration is inside the interval, not
// added to it). A nil receiver is not valid.
func (p *Poller) Observe(st Status, exchangeErr error) time.Duration {
	if exchangeErr == nil {
		p.failures = 0
	}
	switch {
	case kissOf(exchangeErr) != nil:
		// The server answered, and asked to be polled less: Max at once,
		// and no fast retries if the next thing it does is drop requests.
		p.failures = failFastRetries + 1
		p.current = p.max
	case exchangeErr != nil:
		// Timeouts retry at the fast rate while the failure looks like
		// transient loss, then back off exponentially — a dead server
		// yields no information at any polling rate, and the engine
		// coasts regardless. Hard errors burn the fast-retry budget at
		// once: the failure is structural, not lost packets.
		p.failures++
		if !isTimeout(exchangeErr) && p.failures <= failFastRetries {
			p.failures = failFastRetries + 1
		}
		if p.failures <= failFastRetries {
			p.current = p.min
		} else {
			p.current *= 2
			if p.current > p.max {
				p.current = p.max
			}
		}
	case st.Warmup:
		// The engine is still gathering the packets it needs before it
		// trusts any: spend them fast. The next exchange after warmup
		// resumes the doubling from Min.
		p.current = p.min
		return p.min / warmupDivisor
	case st.UpwardShiftDetected, st.OffsetSanity, st.PoorQuality, st.ServerChanged:
		// Something changed or data quality collapsed: gather evidence
		// quickly (re-detection windows are packet-count based, so a
		// faster poll shortens them in wall-clock terms).
		p.current = p.min
	default:
		p.current *= 2
		if p.current > p.max {
			p.current = p.max
		}
	}
	if p.current < p.min {
		p.current = p.min
	}
	return p.current
}
