package ntp

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"repro/internal/metrics"
	"repro/internal/ratelimit"
)

// Counter abstracts the host's raw timestamp source. On the live path it
// is a monotonic nanosecond counter; in the simulation it is the modelled
// TSC register. Reads must be cheap and monotonic non-decreasing.
type Counter func() uint64

// PrecisionFromPeriod converts a counter period in seconds to the NTP
// precision field (log2 seconds, rounded up): 1 ns → −29.
func PrecisionFromPeriod(period float64) int8 {
	if period <= 0 {
		return -20
	}
	return int8(math.Ceil(math.Log2(period)))
}

// MonotonicCounter returns a Counter reading nanoseconds of monotonic
// time since the call, together with its nominal period in seconds
// (1 ns). This is the live-path stand-in for the TSC register: Go exposes
// no portable cycle counter, but the runtime's monotonic clock is driven
// by the same underlying hardware oscillator, so the paper's calibration
// algorithms apply unchanged with p ~ 1e-9 — but only while no host
// daemon (chrony, ntpd, systemd-timesyncd) slews CLOCK_MONOTONIC through
// adjtimex. A slewed counter is no longer the raw oscillator the paper
// assumes: each frequency change looks to the engine like a rate break,
// and the estimates chase the other daemon's corrections (ROADMAP 24).
func MonotonicCounter() (Counter, float64) {
	start := time.Now()
	return func() uint64 {
		return uint64(time.Since(start))
	}, 1e-9
}

// RawExchange is the result of one NTP client exchange in raw form: the
// host counter readings bracketing the exchange and the two server
// timestamps from the payload. This is exactly the per-packet input of
// the synchronization algorithms.
type RawExchange struct {
	// Ta and Tf are host counter readings: Ta just before the request
	// was passed to the network stack, Tf just after the response
	// arrived. With kernel stamping armed (EnableKernelStamps), Ta is
	// advanced to the kernel's error-queue TX stamp and Tf backdated to
	// the kernel's RX cmsg stamp, so both readings reflect the wire
	// rather than the syscall boundary.
	Ta, Tf uint64
	// Tb and Te are the server receive and transmit timestamps in
	// seconds (since the NTP epoch of the current era on the live path;
	// since the simulation origin on the simulated path).
	Tb, Te float64
	// Stratum and RefID identify the server's synchronization source;
	// RefID changes are a route/server-change signal.
	Stratum uint8
	RefID   uint32

	// KernelTa and KernelTf report whether Ta/Tf were corrected to
	// kernel timestamps; when false the corresponding stamp is the
	// userspace fallback. TaDelta and TfDelta are the measured
	// kernel-vs-userspace deltas in seconds (>= 0; zero when the stamp
	// was missing): TaDelta is the send-side dwell between the
	// userspace write stamp and the kernel's transmit stamp, TfDelta
	// the receive-side dwell between the kernel's arrival stamp and the
	// userspace read-return stamp. These deltas ARE the host stamping
	// noise the paper's filtering machinery otherwise has to absorb.
	KernelTa, KernelTf bool
	TaDelta, TfDelta   float64
}

// rxStampInfo carries the kernel RX stamp (if any) of one received
// datagram together with the userspace wall time bracketing the read,
// so the Tf adjustment can be computed after reply matching.
type rxStampInfo struct {
	kernel time.Time // kernel software RX stamp; zero when absent
	wall   time.Time // userspace wall clock just after the read returned
}

// Client performs NTP exchanges over a PacketConn-style transport.
type Client struct {
	conn    net.Conn
	counter Counter
	timeout time.Duration
	version uint8
	ks      *kernelStamps // kernel SO_TIMESTAMPING state; nil = userspace stamps
	sc      clientStampCells
	now     func() time.Time // the wall clock kernel stamps are held against; time.Now outside tests
}

// NewClient returns a client that exchanges NTP packets on conn (already
// connected to the server address) and stamps with counter. A zero
// timeout defaults to 4 seconds.
func NewClient(conn net.Conn, counter Counter, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 4 * time.Second
	}
	return &Client{conn: conn, counter: counter, timeout: timeout, version: 4, now: time.Now}
}

// Shared kernel-stamp trust clamp, used identically by the serving RX
// backdate, the serving TX dwell, and both client-side corrections
// (one constant set, per the stamping contract in ARCHITECTURE.md):
//
//   - stampMaxAge bounds how far in the past a kernel stamp may claim
//     to be before it is distrusted — a clock step between the kernel
//     stamp and the userspace wall read would otherwise smear the step
//     into a timestamp correction;
//   - stampSlack is the tolerated negative age (the kernel stamp
//     apparently in the future of the wall read): sub-millisecond
//     skew is wall-clock jitter and is clamped to zero, anything
//     larger is a step and the stamp is distrusted;
//   - txAdvanceMax bounds the Transmit forward-dating applied from the
//     measured TX-dwell EWMA — the dwell is a *prediction* for the
//     packet being stamped (unlike the RX backdate, which is measured
//     per packet), so it gets a far tighter cap.
//
// Every clamp hit is counted (Stats.StampClamped on the serving path,
// ClientStampStats.Clamped on the client path) and surfaced as the
// ntp_stamp_clamped_total metric — a clamping host has a stepping or
// badly skewed clock, which is worth an alert, not a silent counter.
const (
	stampMaxAge  = time.Second
	stampSlack   = time.Millisecond
	txAdvanceMax = time.Millisecond
)

// clientStampCells are the cells behind ClientStampStats. The exchange
// path is single-goroutine per client, but stats are read by metric
// scrapes, so every field is an atomic cell.
type clientStampCells struct {
	txStamped metrics.Counter
	txMissing metrics.Counter
	rxStamped metrics.Counter
	rxMissing metrics.Counter
	clamped   metrics.Counter
	taDelta   metrics.EWMA // Ta delta, seconds
	tfDelta   metrics.EWMA // Tf delta, seconds
}

// StampDeltaAlpha is the gain of the kernel-vs-userspace stamp-delta
// averages, here and per upstream slot: one exchange per poll is a slow
// stream, so the average follows it quickly.
const StampDeltaAlpha = 1.0 / 8

// ClientStampStats is a snapshot of a client's kernel-stamp coverage:
// how many exchanges got their Ta from the error-queue TX stamp and
// their Tf from the RX cmsg stamp, how many fell back to userspace
// stamps, and the EWMA of the kernel-vs-userspace deltas (the measured
// host stamping noise, in seconds).
type ClientStampStats struct {
	TxStamped uint64 // exchanges with Ta from the kernel TX stamp
	TxMissing uint64 // exchanges that fell back to the userspace Ta
	RxStamped uint64 // exchanges with Tf from the kernel RX stamp
	RxMissing uint64 // exchanges that fell back to the userspace Tf
	Clamped   uint64 // kernel stamps rejected or clipped by the trust clamp
	TaDelta   float64
	TfDelta   float64
}

// StampStats returns the client's kernel-stamp coverage counters. All
// zeros when kernel stamping was never armed.
func (c *Client) StampStats() ClientStampStats {
	return ClientStampStats{
		TxStamped: c.sc.txStamped.Value(),
		TxMissing: c.sc.txMissing.Value(),
		RxStamped: c.sc.rxStamped.Value(),
		RxMissing: c.sc.rxMissing.Value(),
		Clamped:   c.sc.clamped.Value(),
		TaDelta:   c.sc.taDelta.Value(),
		TfDelta:   c.sc.tfDelta.Value(),
	}
}

// EnableKernelStamps arms kernel SO_TIMESTAMPING on the client socket
// (Linux, *net.UDPConn transports): software TX stamps read back from
// the socket error queue move Ta to the kernel's transmit instant, and
// software RX stamps from the receive cmsg move Tf to the kernel's
// arrival instant — both stamps shed the scheduler-wakeup dwell the
// paper models as host noise. period is the counter's nominal period
// in seconds per unit (needed to convert wall-time deltas into counter
// units). Returns whether stamping was armed; false (other platforms,
// non-UDP transports, old kernels) leaves the userspace stamps in
// place, and even when armed every exchange falls back per-stamp when
// the kernel omits one (counted in StampStats).
func (c *Client) EnableKernelStamps(period float64) bool {
	return c.armKernelStamps(period)
}

// KissError is a kiss-of-death: a stratum-0 reply whose reference ID is
// an ASCII code asking the client to change its behaviour (RFC 5905
// §7.4) — "RATE" to poll less often, "DENY" or "RSTR" to stop. It is an
// answer, not a failure of the path: the server is reachable and said
// so. Exchange returns it as the error; read it with errors.As.
type KissError struct {
	Code string
}

func (e *KissError) Error() string {
	return fmt.Sprintf("ntp: kiss-of-death from server (refid %q)", e.Code)
}

// Demobilizes reports a DENY or RSTR kiss: the server refused access,
// and the client MUST stop sending to it (RFC 5905 §7.4). RATE only
// asks for a longer poll.
func (e *KissError) Demobilizes() bool { return e.Code == "DENY" || e.Code == "RSTR" }

// errShortWrite is returned when the transport accepts a partial packet.
var errShortWrite = errors.New("ntp: short write")

// originCookie draws the 64 unpredictable bits a request carries in its
// Transmit field. crypto/rand.Read never fails (it aborts the program
// if the kernel's entropy source does).
func originCookie() Time64 {
	var b [8]byte
	rand.Read(b[:])
	return Time64(binary.BigEndian.Uint64(b[:]))
}

// Exchange sends one client-mode request and waits for the matching
// server reply, returning the raw four-tuple. The counter is read as
// close to the send and receive as user space allows; any residual
// latency appears to the algorithms as network delay and is filtered like
// any other positive noise, per the paper's Section 2.2.1.
func (c *Client) Exchange() (RawExchange, error) {
	var raw RawExchange

	req := Packet{
		Version: c.version,
		Mode:    ModeClient,
		Poll:    6,
		// Transmit is a random cookie the reply must echo in Origin, not
		// a timestamp: nothing downstream reads it as time (the raw
		// counter is what matters), a wall-clock reading would leak the
		// host clock, and — being guessable to within the RTT — would let
		// an off-path sender forge a matching reply.
		Transmit: originCookie(),
	}
	buf := req.Marshal()

	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return raw, fmt.Errorf("ntp: set deadline: %w", err)
	}

	// taWall brackets the write on the wall clock so the kernel TX stamp
	// (CLOCK_REALTIME) can be compared against it; it is only read when
	// kernel stamping is armed, keeping the userspace-only path at one
	// counter read around the syscall.
	taWall := c.stampWall()
	raw.Ta = c.counter()
	n, err := c.conn.Write(buf[:])
	if err != nil {
		return raw, fmt.Errorf("ntp: send: %w", err)
	}
	if n != len(buf) {
		return raw, errShortWrite
	}

	var rbuf [512]byte
	for {
		n, rx, err := c.readReply(rbuf[:])
		tf := c.counter()
		if err != nil {
			return raw, fmt.Errorf("ntp: receive: %w", err)
		}
		var resp Packet
		if err := resp.Unmarshal(rbuf[:n]); err != nil {
			continue // not an NTP packet; keep waiting until deadline
		}
		if resp.Mode != ModeServer || resp.Origin != req.Transmit {
			continue // stray or stale reply
		}
		if resp.Stratum == 0 {
			return raw, &KissError{Code: resp.RefIDString()}
		}
		if resp.Transmit.IsZero() || int64(resp.Transmit-resp.Receive) < 0 {
			// No transmit stamp, or one that precedes the receive stamp
			// (compared modulo the era, as the wire format wraps): a
			// negative server residence is not a measurement, and no data
			// beats bad data. Keep waiting, as for a stale origin. Leap=3
			// replies are deliberately let through: the ladder's
			// dead-chain rung depends on seeing those identities.
			continue
		}
		raw.Tf = tf
		raw.Tb = resp.Receive.Seconds()
		raw.Te = resp.Transmit.Seconds()
		raw.Stratum = resp.Stratum
		raw.RefID = resp.RefID
		c.applyKernelStamps(&raw, req.Transmit, taWall, rx)
		return raw, nil
	}
}

// orderedStamps returns the Ta, Tf an exchange reports: the
// kernel-corrected pair ta, tf while Tf stays after Ta, otherwise the
// userspace pair userTa, userTf, which the monotonic counter keeps
// ordered. On a fast path the two corrections can cross — Ta moves
// forward by the send dwell, Tf back by the receive dwell, each
// measured on the wall clock — and an engine refuses an exchange whose
// Tf is not after its Ta. kept reports whether the corrected pair was
// kept.
func orderedStamps(userTa, userTf, ta, tf uint64) (_, _ uint64, kept bool) {
	if tf > ta {
		return ta, tf, true
	}
	return userTa, userTf, false
}

// ServerClock supplies the server's notion of current time for stamping.
type ServerClock func() Time64

// SystemServerClock stamps from the OS wall clock.
func SystemServerClock() ServerClock {
	return func() Time64 { return Time64FromTime(time.Now()) }
}

// ClockSample is one reading of a serving clock together with the
// health the server should advertise for it. A stratum-2 relay derives
// Leap/Stratum/RootDelay/RootDisp from the upstream ensemble's
// published readout; the bundled stratum-1 server uses static values.
type ClockSample struct {
	Time      Time64
	Leap      LeapIndicator
	Stratum   uint8
	Precision int8
	RefID     uint32
	RootDelay Short32
	RootDisp  Short32
}

// SampleClock supplies dynamic stamping plus advertised health for
// every request. It must be safe for concurrent use: the sharded
// serving path calls it from every shard goroutine (reads of a
// published clock readout satisfy this for free).
type SampleClock func() ClockSample

// ServerConfig configures the bundled NTP server.
type ServerConfig struct {
	// Sample supplies stamping and per-request health. When nil, a
	// static SampleClock is assembled from Clock and RefID, advertising
	// staticStratum and staticPrecision.
	Sample SampleClock

	// Clock stamps replies when Sample is nil.
	Clock ServerClock
	RefID uint32 // defaults to "GPS"

	// Limit, when non-nil, rate-limits requests by client prefix on
	// every shard: over-budget packets are dropped before parsing and
	// counted in Stats.RateLimited, so one abusive subnet spends its
	// own bucket instead of a shard's cycles. Nil serves unlimited.
	Limit *ratelimit.Limiter

	// TxStamp arms SOF_TIMESTAMPING_TX_SOFTWARE on batched sockets: the
	// kernel loops a software transmit stamp for every reply back on the
	// socket error queue, the serving loop drains it (batched, non-
	// blocking, allocation-free) and correlates stamps to replies by the
	// embedded Transmit cookie, measuring the userspace→kernel TX dwell
	// distribution (Stats.TxDwell*). The serving loop then forward-dates
	// each reply's Transmit field by the clamped dwell EWMA, so clients
	// see NIC-adjacent departure the way RX stamps give them NIC-
	// adjacent arrival. Off by default: unlike the RX backdate — a
	// per-packet measurement — the TX advance is a prediction, and
	// operators should opt in after looking at the dwell distribution.
	// Ignored where the portable packet I/O serves (see Serve).
	TxStamp bool
}

// Stats is a point-in-time snapshot of a server's request counters,
// aggregated across every shard serving through the same Server.
type Stats struct {
	Requests    uint64 // packets read off the sockets
	Replied     uint64 // server-mode replies sent
	Short       uint64 // dropped: shorter than the 48-byte v4 header
	Malformed   uint64 // dropped: unparseable or version 0
	NonClient   uint64 // dropped: not a client-mode request
	RateLimited uint64 // dropped: client prefix over its token budget
	WriteErrors uint64 // reply writes that failed

	// RecvCalls and SendCalls count the receive and send syscalls the
	// serving loop's packet I/O issued. The portable I/O pays one of
	// each per reply; recvmmsg/sendmmsg amortize each across up to 32
	// packets, so (RecvCalls+SendCalls)/Replied is the measured
	// syscalls-per-reply figure the batching exists to shrink.
	RecvCalls uint64
	SendCalls uint64

	// KernelRx counts datagrams that arrived with a usable kernel
	// SO_TIMESTAMPING RX timestamp (their replies, if any, have Receive
	// backdated to kernel arrival); KernelRxMissing counts datagrams
	// without one (option unsupported, cmsg omitted by the kernel, a
	// stamp too stale/garbled to trust — or the portable packet I/O,
	// which supplies no kernel stamp, so every packet it serves counts
	// here like any other stampless datagram). Rate-limited packets are
	// dropped before their stamp is looked at and count under neither.
	KernelRx        uint64
	KernelRxMissing uint64

	// KernelTx counts replies whose kernel TX stamp came back on the
	// error queue and correlated to a recorded send (their dwell fed the
	// EWMA); KernelTxMissing counts error-queue packets that could not
	// be used (no cmsg stamp, uncorrelatable cookie, or a dwell outside
	// the trust clamp). Both stay zero unless ServerConfig.TxStamp armed
	// TX stamping on a recvmmsg/sendmmsg-served socket.
	KernelTx        uint64
	KernelTxMissing uint64

	// StampClamped counts kernel timestamps (RX and TX alike) rejected
	// or clipped by the shared trust clamp [−stampSlack, stampMaxAge].
	// A steadily increasing value means the host clock is stepping or
	// badly skewed relative to the kernel's stamping clock.
	StampClamped uint64

	// TxDwellEWMA is the current userspace→kernel TX dwell estimate
	// (EWMA, alpha 1/16): how long after the serving loop stamped
	// Transmit the kernel actually handed the reply to the driver. This
	// is the amount by which TxStamp forward-dates Transmit, before the
	// txAdvanceMax clamp. TxDwell is the dwell histogram as cumulative
	// counts per TxDwellBounds bucket (the last bucket is +Inf), and
	// TxDwellSum the total observed dwell in seconds.
	TxDwellEWMA time.Duration
	TxDwell     [len(TxDwellBounds) + 1]uint64
	TxDwellSum  float64
}

// TxDwellBounds are the upper bounds, in seconds, of the TX dwell
// histogram buckets (a final +Inf bucket is implicit): 1 µs to 1 s in
// decades, matching the range between a hot send path and the
// stampMaxAge trust bound.
var TxDwellBounds = [7]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// Dropped is the total of all protocol drop reasons (rate-limited
// packets are counted separately: they may be perfectly well-formed).
func (s Stats) Dropped() uint64 { return s.Short + s.Malformed + s.NonClient }

// counters are the cells behind Stats — the one place a serving count
// lives: the loop and its packet I/O write them, Stats, the log line
// and the metric scrape (RegisterMetrics) read them. One instance is
// shared by every shard goroutine of a Server.
type counters struct {
	requests        metrics.Counter
	replied         metrics.Counter
	short           metrics.Counter
	malformed       metrics.Counter
	nonClient       metrics.Counter
	rateLimited     metrics.Counter
	writeErrors     metrics.Counter
	recvCalls       metrics.Counter
	sendCalls       metrics.Counter
	kernelRx        metrics.Counter
	kernelRxMissing metrics.Counter
	kernelTx        metrics.Counter
	kernelTxMissing metrics.Counter
	stampClamped    metrics.Counter

	txDwellEWMA metrics.EWMA       // seconds
	txDwell     *metrics.Histogram // seconds, TxDwellBounds buckets
}

// txDwellAlpha is the gain of the TX dwell average: thousands of
// samples a second, so a slow gain that rides through a burst.
const txDwellAlpha = 1.0 / 16

// recordTxDwell folds one measured userspace→kernel TX dwell (already
// clamp-checked by the caller) into the EWMA and the histogram.
//
//repro:hotpath
func (s *Server) recordTxDwell(dwell time.Duration) {
	sec := dwell.Seconds()
	s.stats.txDwellEWMA.Observe(sec, txDwellAlpha)
	s.stats.txDwell.Observe(sec)
}

// txAdvance returns the Transmit forward-dating the serving loop should
// apply: the dwell EWMA clamped to [0, txAdvanceMax]. Zero until the
// first TX stamp correlates (and always zero when TxStamp is off — the
// EWMA never moves).
//
//repro:hotpath
func (s *Server) txAdvance() time.Duration {
	d := secondsToDuration(s.stats.txDwellEWMA.Value())
	if d <= 0 {
		return 0
	}
	if d > txAdvanceMax {
		return txAdvanceMax
	}
	return d
}

// secondsToDuration rounds float seconds to the nearest nanosecond.
//
//repro:hotpath
func secondsToDuration(sec float64) time.Duration {
	return time.Duration(math.Round(sec * 1e9))
}

// Server is a minimal NTP responder. It answers client-mode requests
// with server-mode replies carrying receive and transmit stamps —
// all the TSC-NTP calibration consumes — stamping every reply from a
// SampleClock (the OS clock for the bundled stratum-1 server, a
// synchronized ensemble readout for the stratum-2 relay). One Server
// may serve many sockets concurrently (see ListenShards); the counters
// are shared and atomic.
type Server struct {
	sample  SampleClock
	limit   *ratelimit.Limiter
	txStamp bool
	now     func() time.Time // the loop's wall clock; time.Now outside tests
	stats   counters
}

// The health a static sample advertises: a stratum-1 server whose clock
// reads to about a microsecond (2^−20 s).
const (
	staticStratum   = 1
	staticPrecision = -20
)

// NewServer constructs a server; nil or zero fields take defaults.
func NewServer(cfg ServerConfig) (*Server, error) {
	sample := cfg.Sample
	if sample == nil {
		if cfg.Clock == nil {
			return nil, errors.New("ntp: server requires a clock")
		}
		if cfg.RefID == 0 {
			cfg.RefID = RefIDFromString("GPS")
		}
		clock := cfg.Clock
		static := ClockSample{
			Leap:      LeapNone,
			Stratum:   staticStratum,
			Precision: staticPrecision,
			RefID:     cfg.RefID,
		}
		sample = func() ClockSample {
			s := static
			s.Time = clock()
			return s
		}
	}
	s := &Server{sample: sample, limit: cfg.Limit, txStamp: cfg.TxStamp, now: time.Now}
	s.stats.txDwell = metrics.NewHistogram(TxDwellBounds[:]...)
	return s, nil
}

// Stats returns a snapshot of the request counters.
func (s *Server) Stats() Stats {
	c := &s.stats
	st := Stats{
		Requests:        c.requests.Value(),
		Replied:         c.replied.Value(),
		Short:           c.short.Value(),
		Malformed:       c.malformed.Value(),
		NonClient:       c.nonClient.Value(),
		RateLimited:     c.rateLimited.Value(),
		WriteErrors:     c.writeErrors.Value(),
		RecvCalls:       c.recvCalls.Value(),
		SendCalls:       c.sendCalls.Value(),
		KernelRx:        c.kernelRx.Value(),
		KernelRxMissing: c.kernelRxMissing.Value(),
		KernelTx:        c.kernelTx.Value(),
		KernelTxMissing: c.kernelTxMissing.Value(),
		StampClamped:    c.stampClamped.Value(),
		TxDwellEWMA:     secondsToDuration(c.txDwellEWMA.Value()),
		TxDwellSum:      c.txDwell.Sum(),
	}
	c.txDwell.Cumulative(st.TxDwell[:])
	return st
}

// RegisterMetrics renders the serving cells in reg — the same cells
// Stats reads, so a scrape copies nothing and concurrent scrapes see
// monotone counters.
func (s *Server) RegisterMetrics(reg *metrics.Registry) {
	c := &s.stats
	reg.RegisterCounter("ntp_requests_total", "Datagrams received on the serving sockets.", &c.requests)
	reg.RegisterCounter("ntp_replies_total", "Server-mode replies sent.", &c.replied)
	dropped := reg.CounterVec("ntp_dropped_total", "Datagrams dropped before a reply, by reason.", "reason")
	dropped.Register(&c.short, "short")
	dropped.Register(&c.malformed, "malformed")
	dropped.Register(&c.nonClient, "nonclient")
	reg.RegisterCounter("ntp_rate_limited_total", "Requests dropped by the per-prefix token bucket.", &c.rateLimited)
	reg.RegisterCounter("ntp_write_errors_total", "Reply writes that failed.", &c.writeErrors)
	reg.RegisterCounter("ntp_recv_syscalls_total", "Receive syscalls issued by the serving loops (recvmmsg drains a whole batch per call).", &c.recvCalls)
	reg.RegisterCounter("ntp_send_syscalls_total", "Send syscalls issued by the serving loops (sendmmsg answers a whole batch per call).", &c.sendCalls)
	reg.RegisterCounter("ntp_kernel_rx_stamps_total", "Batched datagrams carrying a usable kernel SO_TIMESTAMPING RX timestamp.", &c.kernelRx)
	reg.RegisterCounter("ntp_kernel_rx_missing_total", "Batched datagrams served without a usable kernel RX timestamp.", &c.kernelRxMissing)
	reg.RegisterCounter("ntp_kernel_tx_stamps_total", "Replies whose kernel TX stamp came back on the error queue and correlated to a recorded send.", &c.kernelTx)
	reg.RegisterCounter("ntp_kernel_tx_missing_total", "Error-queue entries without a usable, correlatable TX stamp.", &c.kernelTxMissing)
	reg.RegisterCounter("ntp_stamp_clamped_total", "Kernel timestamps (RX and TX) rejected or clipped by the shared trust clamp — a rising value means the host clock is stepping.", &c.stampClamped)
	reg.RegisterHistogram("ntp_tx_dwell_seconds", "Measured userspace-to-kernel TX dwell per stamped reply.", c.txDwell)
	reg.GaugeFunc("ntp_tx_dwell_ewma_seconds", "Current TX dwell EWMA: the forward-dating the serving loop applies to Transmit when -txstamp is on (before the clamp).", c.txDwellEWMA.Value)
	// The average receive batch depth per syscall is the lever batched
	// I/O exists to pull; near 1.0 it means the socket never builds
	// queue depth and each reply pays its own pair of syscalls.
	reg.GaugeFunc("ntp_rx_batch_avg", "Mean datagrams drained per receive syscall since start.", func() float64 {
		calls := c.recvCalls.Value()
		if calls == 0 {
			return 0
		}
		return float64(c.requests.Value()) / float64(calls)
	})
}

// handlePacket is the per-packet serving pipeline over caller-owned
// buffers: validate the datagram in `in` (mutated in place for the
// v5+ version clamp), stamp one clock sample, and marshal the reply
// into out. It returns true when out holds a reply to send; drops are
// counted internally (short, malformed, non-client). The serving loop
// owns the surrounding concerns — counting the request, rate limiting,
// sending the reply and counting its outcome.
//
// Input validation is explicit rather than delegated to Unmarshal:
// packets shorter than the 48-byte v4 header and version-0 packets are
// dropped and counted, and a request with a version above 4 is served
// with the reply version clamped to 4 (RFC 5905 §7.3 behaviour: answer
// with the highest version the server speaks) instead of dropped.
//
// rxAge is how long ago the kernel stamped the datagram's arrival
// (zero when unknown): the reply's Receive stamp is backdated by it,
// so clients measure from NIC-adjacent arrival rather than from the
// scheduler wakeup that dequeued the packet — the paper's point that
// stamps taken closer to the wire carry less host noise, applied to
// the serving side. Symmetrically, txAdvance is the predicted
// userspace→kernel send dwell (zero when TX stamping is off or not
// yet converged): the reply's Transmit stamp is forward-dated by it,
// so the visible Receive→Transmit dwell brackets the true
// wire-to-wire residence instead of the stamp-to-stamp one.
//
//repro:hotpath
func (s *Server) handlePacket(in []byte, out *[PacketSize]byte, rxAge, txAdvance time.Duration) bool {
	if len(in) < PacketSize {
		s.stats.short.Inc()
		return false
	}
	ver := (in[0] >> 3) & 0x7
	if ver == 0 {
		s.stats.malformed.Inc()
		return false
	}
	if ver > 4 {
		// Clamp to the newest version we speak, both for parsing
		// (the codec rejects unknown versions) and for the reply.
		ver = 4
		in[0] = in[0]&^(0x7<<3) | ver<<3
	}
	var req Packet
	if err := req.Unmarshal(in); err != nil {
		s.stats.malformed.Inc()
		return false
	}
	if req.Mode != ModeClient {
		s.stats.nonClient.Inc()
		return false
	}
	// One sample stamps the whole reply. Sampling only for packets
	// that will be answered keeps a garbage flood from buying
	// combined-readout evaluations, and using the SAME sample for
	// Receive and Transmit keeps the stamps mutually consistent —
	// two samples could straddle a publication and step Transmit
	// before Receive. Without a kernel RX stamp the sub-microsecond
	// dwell this hides is far below the clock's error scale; with one,
	// Receive is backdated by the measured age instead.
	rx := s.sample()
	recv := rx.Time
	if rxAge > 0 {
		recv = recv.Add(-rxAge)
	}
	xmt := rx.Time
	if txAdvance > 0 {
		xmt = xmt.Add(txAdvance)
	}
	resp := Packet{
		Leap:      rx.Leap,
		Version:   ver,
		Mode:      ModeServer,
		Stratum:   rx.Stratum,
		Poll:      req.Poll,
		Precision: rx.Precision,
		RootDelay: rx.RootDelay,
		RootDisp:  rx.RootDisp,
		RefID:     rx.RefID,
		RefTime:   rx.Time,
		Origin:    req.Transmit,
		Receive:   recv,
		Transmit:  xmt,
	}
	*out = resp.Marshal()
	return true
}
