package tscclock

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ensemble"
	"repro/internal/metrics"
	"repro/internal/ntp"
)

// MultiLiveOptions configures a live synchronizer.
type MultiLiveOptions struct {
	// Servers are the upstream NTP server addresses ("host:123"). At
	// least one is required — a single server is the one-voter case of
	// the same client; three or more is what makes the ensemble's
	// majority vote meaningful.
	Servers []string
	// Poll is the per-server steady-state polling interval floor.
	// Default: 64 s. Each engine's warmup (its first 32 exchanges) runs
	// at Poll/4, so the aggregate request rate is 4·Servers/Poll during
	// warmup and at most Servers/Poll after it. Raise Poll when polling
	// many public servers, and be conservative: public stratum-1 servers
	// must not be overloaded.
	Poll time.Duration
	// MaxPoll bounds the per-server adaptive backoff. Default: 16×Poll
	// (capped at 1024 s). MaxPoll equal to Poll is a fixed cadence after
	// warmup.
	MaxPoll time.Duration
	// Timeout bounds each exchange. Default: 4 s.
	Timeout time.Duration
	// Ensemble configures the combined clock: the per-server calibration
	// options (Ensemble.Clock, whose NominalPeriod defaults to 1 ns, the
	// monotonic counter's resolution, and whose PollPeriod is derived
	// from Poll) and the holdover policy, defaulted as EnsembleOptions
	// documents. Ensemble.Servers is filled in from Servers.
	Ensemble EnsembleOptions
}

// upstream is one server's connection slot. The slot owns the (re)dial
// lifecycle: a nil client means disconnected, and the next Step dials
// anew — re-resolving the name, so a server that moved comes back. The
// mutex guards the slot only; exchanges run outside it so a slow server
// never blocks another slot's reconnect.
type upstream struct {
	addr string

	mu          sync.Mutex
	conn        net.Conn
	client      *ntp.Client
	consecFails int
	// refused is the DENY or RSTR kiss that demobilized the slot: it is
	// never dialed or polled again (RFC 5905 §7.4), and every Step
	// returns this error.
	refused *ntp.KissError

	// The slot's counts are metric cells: written where the event
	// happens, read by UpstreamStates and rendered by NewRelayMetrics.
	// The kernel-stamp ones aggregate across redials (the client's own
	// reset with each fresh socket).
	dials        metrics.Counter
	dialFailures metrics.Counter
	kernelTa     metrics.Counter
	kernelTf     metrics.Counter
	stampMiss    metrics.Counter
	stampClamped metrics.Counter
	taDelta      metrics.EWMA // kernel-vs-userspace Ta delta (s)
	tfDelta      metrics.EWMA // kernel-vs-userspace Tf delta (s)
}

// noteStamps folds one successful exchange's kernel-stamp outcome into
// the slot's aggregate view.
func (up *upstream) noteStamps(raw ntp.RawExchange) {
	if raw.Clamped > 0 {
		up.stampClamped.Add(raw.Clamped)
	}
	if raw.KernelTa {
		up.kernelTa.Inc()
		up.taDelta.Observe(raw.TaDelta, ntp.StampDeltaAlpha)
	} else {
		up.stampMiss.Inc()
	}
	if raw.KernelTf {
		up.kernelTf.Inc()
		up.tfDelta.Observe(raw.TfDelta, ntp.StampDeltaAlpha)
	} else {
		up.stampMiss.Inc()
	}
}

// redialAfterFailures is how many consecutive exchange failures on a
// live socket force a fresh dial: the socket may be fine while the
// route or the resolved address is not, and re-resolution is the only
// way back from a server migration.
const redialAfterFailures = 8

// MultiLive is the live client, the one path from a real network to a
// calibrated clock: the full TSC-NTP pipeline against one or more NTP
// servers over UDP — raw monotonic counter stamps on the host side,
// standard NTP packets on the wire, one engine per server sharing the
// host counter, combined by the ensemble's weighted-median agreement
// (with one server the median is that server's clock, bit for bit).
// Per-server polling schedules are staggered so exchanges interleave
// instead of bursting, and each server backs off independently with its
// own adaptive Poller. Unreachable servers — at dial time or later — do
// not fail the client: their slots keep re-dialing under the poller's
// capped exponential backoff while the ensemble's degradation ladder
// reports how much of the vote remains.
type MultiLive struct {
	ens     *Ensemble
	ups     []*upstream
	pollers []*Poller
	counter ntp.Counter
	period  float64 // the counter's nominal period (s/cycle)
	poll    time.Duration
	timeout time.Duration
	dial    func(string) (net.Conn, error)
	closed  atomic.Bool
}

// DialMultiLive connects to every server and prepares the synchronizer.
// Call Step for single exchanges or Run for the staggered polling
// loops. Unreachable servers are tolerated as long as one can be
// reached: they start reconnecting in the background. Every dialed
// socket is armed for kernel SO_TIMESTAMPING where the platform has it
// (Ta from the error-queue transmit stamp, Tf from the RX cmsg, each
// falling back to the userspace reading; coverage per server in
// UpstreamStates).
func DialMultiLive(opts MultiLiveOptions) (*MultiLive, error) {
	return dialMultiLive(opts, func(addr string) (net.Conn, error) {
		return net.Dial("udp", addr)
	})
}

// dialMultiLive is DialMultiLive with an injectable dial function, so
// tests can observe socket release, reconnection and Close aggregation
// without the network.
func dialMultiLive(opts MultiLiveOptions, dial func(string) (net.Conn, error)) (*MultiLive, error) {
	if len(opts.Servers) == 0 {
		return nil, fmt.Errorf("tscclock: MultiLiveOptions.Servers is required")
	}
	poll := opts.Poll
	if poll <= 0 {
		poll = 64 * time.Second
	}
	maxPoll := opts.MaxPoll
	if maxPoll <= 0 {
		maxPoll = 16 * poll
		if maxPoll > 1024*time.Second {
			maxPoll = 1024 * time.Second
		}
	}
	counter, period := ntp.MonotonicCounter()
	ensOpts := opts.Ensemble
	ensOpts.Servers = len(opts.Servers)
	if ensOpts.Clock.NominalPeriod == 0 {
		ensOpts.Clock.NominalPeriod = period
	}
	if ensOpts.Clock.PollPeriod == 0 {
		ensOpts.Clock.PollPeriod = poll.Seconds()
	}
	ens, err := NewEnsemble(ensOpts)
	if err != nil {
		return nil, err
	}
	m := &MultiLive{
		ens:     ens,
		counter: counter,
		period:  ensOpts.Clock.NominalPeriod,
		poll:    poll,
		timeout: opts.Timeout,
		dial:    dial,
	}
	connected := 0
	var firstErr error
	for _, addr := range opts.Servers {
		up := &upstream{addr: addr}
		m.ups = append(m.ups, up)
		m.pollers = append(m.pollers, NewPoller(poll, maxPoll))
		if _, err := m.ensureClient(up); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		connected++
	}
	if connected == 0 {
		return nil, fmt.Errorf("tscclock: none of %d servers reachable: %w", len(opts.Servers), firstErr)
	}
	return m, nil
}

// Ensemble returns the underlying combined clock.
func (m *MultiLive) Ensemble() *Ensemble { return m.ens }

// Counter reads the shared raw host counter.
func (m *MultiLive) Counter() uint64 { return m.counter() }

// ensureClient returns the slot's client, dialing (and thereby
// re-resolving) on demand when the slot is disconnected: the one place
// a socket is opened, wrapped in a client and armed for kernel stamps,
// at dial time and at every reconnection alike. A demobilized slot
// returns the kiss that demobilized it.
func (m *MultiLive) ensureClient(up *upstream) (*ntp.Client, error) {
	up.mu.Lock()
	defer up.mu.Unlock()
	if up.refused != nil {
		return nil, up.refused
	}
	if up.client != nil {
		return up.client, nil
	}
	if m.closed.Load() {
		return nil, net.ErrClosed
	}
	conn, err := m.dial(up.addr)
	if err != nil {
		up.dialFailures.Inc()
		return nil, fmt.Errorf("tscclock: dial %s: %w", up.addr, err)
	}
	if m.closed.Load() {
		conn.Close()
		return nil, net.ErrClosed
	}
	up.conn = conn
	up.client = ntp.NewClient(conn, m.counter, m.timeout)
	up.client.EnableKernelStamps(m.period)
	up.dials.Inc()
	up.consecFails = 0
	return up.client, nil
}

// observeExchange tracks consecutive failures per slot and tears the
// socket down after redialAfterFailures of them, so the next Step dials
// fresh. A kiss-of-death is an answer: the socket, the route and the
// resolved address all work, so it clears the count like a success —
// re-dialing a server that has just asked to be left alone would only
// add traffic. A DENY or RSTR kiss demobilizes the slot for good: its
// socket is closed and it is never dialed or polled again.
func (m *MultiLive) observeExchange(up *upstream, err error) {
	up.mu.Lock()
	defer up.mu.Unlock()
	kiss := kissOf(err)
	if kiss != nil && kiss.Demobilizes() {
		up.refused = kiss
		if up.conn != nil {
			up.conn.Close()
			up.conn, up.client = nil, nil
		}
	}
	if err == nil || kiss != nil {
		up.consecFails = 0
		return
	}
	up.consecFails++
	if up.consecFails >= redialAfterFailures && up.conn != nil && !m.closed.Load() {
		up.conn.Close()
		up.conn, up.client = nil, nil
		up.consecFails = 0
	}
}

// Step performs one NTP exchange with server k and feeds it to the
// ensemble, including the server's identity. A failed exchange — or a
// failed re-dial of a disconnected slot — returns an error and feeds
// nothing: the engine coasts, and the degradation ladder accounts for
// the missing vote.
func (m *MultiLive) Step(k int) (EnsembleStatus, error) {
	if k < 0 || k >= len(m.ups) {
		return EnsembleStatus{}, fmt.Errorf("tscclock: server %d out of range [0,%d)", k, len(m.ups))
	}
	client, err := m.ensureClient(m.ups[k])
	if err != nil {
		return EnsembleStatus{}, err
	}
	raw, err := client.Exchange()
	m.observeExchange(m.ups[k], err)
	if err != nil {
		return EnsembleStatus{}, err
	}
	m.ups[k].noteStamps(raw)
	return m.ens.ProcessNTPExchangeFrom(k, raw.Ta, raw.Tf, raw.Tb, raw.Te, raw.RefID, raw.Stratum)
}

// UpstreamState is the connection view of one server slot.
type UpstreamState struct {
	// Addr is the configured server address.
	Addr string
	// Connected reports whether the slot currently holds a socket; a
	// disconnected slot re-dials on its next scheduled poll, unless a
	// DENY or RSTR kiss demobilized it.
	Connected bool
	// Dials counts successful dials (> 1 means reconnections) and
	// DialFailures failed attempts.
	Dials        uint64
	DialFailures uint64
	// ConsecutiveFailures counts exchange failures since the server
	// last answered on the current socket (a kiss-of-death is an
	// answer); at redialAfterFailures the socket is torn down for a
	// fresh dial.
	ConsecutiveFailures int

	// KernelTa and KernelTf count exchanges whose client send/receive
	// stamps came from kernel SO_TIMESTAMPING (aggregated across
	// redials); StampMisses counts per-stamp fallbacks to userspace
	// readings, and StampClamped the kernel stamps the shared trust
	// clamp rejected or clipped (rising: the host clock is stepping).
	// TaDelta and TfDelta are EWMAs of the measured kernel-vs-userspace
	// stamp deltas in seconds — the client-side stamping noise shed by
	// kernel timestamps, per server.
	KernelTa     uint64
	KernelTf     uint64
	StampMisses  uint64
	StampClamped uint64
	TaDelta      float64
	TfDelta      float64
}

// UpstreamStates returns the connection view of every server slot, in
// server order.
func (m *MultiLive) UpstreamStates() []UpstreamState {
	out := make([]UpstreamState, len(m.ups))
	for k, up := range m.ups {
		up.mu.Lock()
		out[k] = UpstreamState{
			Addr:                up.addr,
			Connected:           up.client != nil,
			Dials:               up.dials.Value(),
			DialFailures:        up.dialFailures.Value(),
			ConsecutiveFailures: up.consecFails,
			KernelTa:            up.kernelTa.Value(),
			KernelTf:            up.kernelTf.Value(),
			StampMisses:         up.stampMiss.Value(),
			StampClamped:        up.stampClamped.Value(),
			TaDelta:             up.taDelta.Value(),
			TfDelta:             up.tfDelta.Value(),
		}
		up.mu.Unlock()
	}
	return out
}

// Run polls every server until the context is cancelled, one goroutine
// per server. Server k's first poll is due k·(Poll/4)/N after Run
// starts, staggering the schedules across one warmup poll so the
// combined clock receives a steady interleaved stream rather than
// synchronized bursts, and the N warmups overlap; after that each
// server paces itself with its own adaptive Poller (Poll/4 during
// warmup, Poll after disturbances, backed off to MaxPoll once
// calibrated — including re-dial attempts of unreachable servers, which
// are hard errors and back off immediately). Polls are paced on
// deadlines: each is due the Poller's interval after the previous one
// was due, not after it returned, so exchange latency does not stretch
// the schedule (see nextDue). A server that answers with a DENY or RSTR
// kiss is demobilized: its goroutine sends nothing more and waits for
// the context like the rest. onStep, when installed, is called after
// every attempt from the polling goroutines (serialize any shared state
// it touches).
func (m *MultiLive) Run(ctx context.Context, onStep func(server int, st EnsembleStatus, err error)) error {
	start := time.Now()
	var wg sync.WaitGroup
	for k := range m.ups {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			due := start.Add(time.Duration(k) * (m.poll / warmupDivisor) / time.Duration(len(m.ups)))
			timer := time.NewTimer(time.Until(due))
			defer timer.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-timer.C:
				}
				st, err := m.Step(k)
				if onStep != nil {
					onStep(k, st, err)
				}
				if kiss := kissOf(err); kiss != nil && kiss.Demobilizes() {
					<-ctx.Done()
					return
				}
				due = nextDue(due, m.pollers[k].Observe(st.Status, err), time.Now())
				timer.Reset(time.Until(due))
			}
		}(k)
	}
	wg.Wait()
	return ctx.Err()
}

// nextDue returns when the next poll is due, given that the last one
// was due at due, its Poller asked for wait and its exchange returned at
// now: wait after due, so neither the exchange's duration nor the
// timer's lateness adds up across polls — or now, once that time has
// passed, so a slow or timed-out exchange is followed by one immediate
// poll, never by a burst catching up the polls it missed.
func nextDue(due time.Time, wait time.Duration, now time.Time) time.Time {
	if next := due.Add(wait); next.After(now) {
		return next
	}
	return now
}

// Now reads the combined absolute clock as a wall-clock time, resolving
// the NTP era with the system clock as pivot. Lock-free, like all
// ensemble reads.
//
//repro:readpath
func (m *MultiLive) Now() time.Time {
	sec := m.ens.AbsoluteTime(m.counter())
	return ntp.Time64FromSeconds(sec).Time(time.Now())
}

// ServerSample returns an ntp.SampleClock that stamps downstream NTP
// replies from the combined ensemble clock: the stratum-2 relay
// adapter of cmd/ntpserver. Every sample is a pure function of the
// latest published combined readout, so the serving shards stamp
// concurrently with the upstream pollers without sharing a lock.
//
// Advertised health walks the ensemble's degradation ladder:
//
//   - UNSYNCED (never calibrated, every identified voting upstream on a
//     dead chain, or held over past the staleness cap):
//     LeapNotSynced/stratum 16 — clients must reject the relay;
//   - SYNCED and DEGRADED: stratum = 1 + the best voting upstream's
//     (2 when identities are unknown), root delay = the lowest voting
//     minimum path RTT, dispersion = the widest voting error scale
//     grown by the readout staleness at the standard 15 PPM rate;
//   - HOLDOVER: the same frozen health summary, with the dispersion
//     growing at the frozen p̂ drift bound if that exceeds 15 PPM — a
//     relay that lost its upstreams advertises an honestly growing
//     error bound instead of a stale confident one.
//
//repro:readpath
func (m *MultiLive) ServerSample(refID uint32) ntp.SampleClock {
	precision := ntp.PrecisionFromPeriod(m.period)
	return func() ntp.ClockSample {
		T := m.counter()
		r := m.ens.Readout()
		s := ntp.ClockSample{
			Time:      ntp.Time64FromSeconds(r.AbsoluteTime(T)),
			RefID:     refID,
			Precision: precision,
		}
		state := r.State(T)
		h := r.Health
		if state == ensemble.StateUnsynced || !r.Synced() ||
			h.AllDeadChain || h.Stratum == 0 || h.Stratum >= ntp.StratumUnsynced {
			s.Leap = ntp.LeapNotSynced
			s.Stratum = ntp.StratumUnsynced
			return s
		}
		s.Leap = ntp.LeapNone
		s.Stratum = h.Stratum
		s.RootDelay = ntp.Short32FromSeconds(h.RootDelay)
		rate := ntp.DispersionRate
		if state == ensemble.StateHoldover && h.DriftBound > rate {
			rate = h.DriftBound
		}
		s.RootDisp = ntp.Short32FromSeconds(h.ErrScale + float64(rate*r.Age(T)))
		return s
	}
}

// Ready reports whether the combined clock currently meets the serving
// bar: the degradation ladder (read at the current counter value, so
// staleness capping applies) at DEGRADED or better. This is the
// predicate behind the relay's /readyz endpoint — a relay in HOLDOVER
// or UNSYNCED keeps answering NTP with honest dispersion/leap bits, but
// a load balancer should prefer replicas that still hold a live vote.
//
//repro:readpath
func (m *MultiLive) Ready() bool {
	return m.ens.State(m.counter()) >= ensemble.StateDegraded
}

// Close releases every UDP socket and stops future re-dials.
func (m *MultiLive) Close() error {
	m.closed.Store(true)
	var first error
	for _, up := range m.ups {
		up.mu.Lock()
		if up.conn != nil {
			if err := up.conn.Close(); err != nil && first == nil {
				first = err
			}
			up.conn, up.client = nil, nil
		}
		up.mu.Unlock()
	}
	return first
}
