package ntp

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"time"

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
// algorithms apply unchanged with p ~ 1e-9.
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
	sc      clientStampCounters
}

// NewClient returns a client that exchanges NTP packets on conn (already
// connected to the server address) and stamps with counter. A zero
// timeout defaults to 4 seconds.
func NewClient(conn net.Conn, counter Counter, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 4 * time.Second
	}
	return &Client{conn: conn, counter: counter, timeout: timeout, version: 4}
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

// clientStampCounters is the atomic backing of ClientStampStats. The
// exchange path is single-goroutine per client, but stats are read by
// metric scrapes, so every field is atomic.
type clientStampCounters struct {
	txStamped atomic.Uint64
	txMissing atomic.Uint64
	rxStamped atomic.Uint64
	rxMissing atomic.Uint64
	clamped   atomic.Uint64
	taDelta   atomic.Uint64 // float64 bits of the Ta-delta EWMA (seconds)
	tfDelta   atomic.Uint64 // float64 bits of the Tf-delta EWMA (seconds)
}

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
		TxStamped: c.sc.txStamped.Load(),
		TxMissing: c.sc.txMissing.Load(),
		RxStamped: c.sc.rxStamped.Load(),
		RxMissing: c.sc.rxMissing.Load(),
		Clamped:   c.sc.clamped.Load(),
		TaDelta:   math.Float64frombits(c.sc.taDelta.Load()),
		TfDelta:   math.Float64frombits(c.sc.tfDelta.Load()),
	}
}

// ewmaUpdate folds one sample into a float64-bits EWMA cell with
// alpha 1/8, seeding from the first sample.
func ewmaUpdate(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := v
		if old != 0 {
			cur := math.Float64frombits(old)
			next = cur + (v-cur)/8
		}
		if bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
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
		if resp.Stratum == 0 { // kiss-of-death
			return raw, fmt.Errorf("ntp: kiss-of-death from server (refid %q)", resp.RefIDString())
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
	// static SampleClock is assembled from the legacy fields below.
	Sample SampleClock

	// Clock stamps replies when Sample is nil.
	Clock     ServerClock
	RefID     uint32 // defaults to "GPS"
	Stratum   uint8  // defaults to 1
	Precision int8   // defaults to -20 (~1 µs)

	// Limit, when non-nil, rate-limits requests by client prefix on
	// every shard: over-budget packets are dropped before parsing and
	// counted in Stats.RateLimited, so one abusive subnet spends its
	// own bucket instead of a shard's cycles. Nil serves unlimited.
	Limit *ratelimit.Limiter

	// Batch is the serving loop's syscall batching factor on platforms
	// with recvmmsg/sendmmsg (Linux amd64/arm64): each receive syscall
	// drains up to Batch datagrams off the socket and each send syscall
	// answers a whole batch, so the per-reply syscall cost is ~2/Batch
	// instead of 2. Batched sockets also arm SO_TIMESTAMPING, so the
	// Receive stamp of every reply reflects the kernel's NIC-adjacent
	// arrival time rather than the scheduler wakeup that dequeued it.
	// 0 takes the default (32); 1 forces the per-packet loop; values
	// above 64 are clamped. Platforms without recvmmsg — and transports
	// that are not *net.UDPConn — always serve per-packet.
	Batch int

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
	// Ignored by the per-packet fallback loop.
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
	// serving loops issued. The per-packet loop pays one of each per
	// reply; the batched loop amortizes each across up to Batch
	// packets, so (RecvCalls+SendCalls)/Replied is the measured
	// syscalls-per-reply figure the batching exists to shrink.
	RecvCalls uint64
	SendCalls uint64

	// KernelRx counts batched datagrams that arrived with a usable
	// kernel SO_TIMESTAMPING RX timestamp (their replies, if any, have
	// Receive backdated to kernel arrival); KernelRxMissing counts
	// batched datagrams without one (option unsupported, cmsg omitted
	// by the kernel, or a stamp too stale/garbled to trust).
	// Rate-limited packets are dropped before stamp parsing, and the
	// per-packet fallback loop never attempts kernel stamping, so
	// neither counts under these.
	KernelRx        uint64
	KernelRxMissing uint64

	// KernelTx counts replies whose kernel TX stamp came back on the
	// error queue and correlated to a recorded send (their dwell fed the
	// EWMA); KernelTxMissing counts error-queue packets that could not
	// be used (no cmsg stamp, uncorrelatable cookie, or a dwell outside
	// the trust clamp). Both stay zero unless ServerConfig.TxStamp armed
	// TX stamping on a batched socket.
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

// counters is the atomic backing of Stats; one instance is shared by
// every shard goroutine of a Server.
type counters struct {
	requests        atomic.Uint64
	replied         atomic.Uint64
	short           atomic.Uint64
	malformed       atomic.Uint64
	nonClient       atomic.Uint64
	rateLimited     atomic.Uint64
	writeErrors     atomic.Uint64
	recvCalls       atomic.Uint64
	sendCalls       atomic.Uint64
	kernelRx        atomic.Uint64
	kernelRxMissing atomic.Uint64
	kernelTx        atomic.Uint64
	kernelTxMissing atomic.Uint64
	stampClamped    atomic.Uint64

	// txDwellEWMA holds the dwell EWMA in nanoseconds; txDwellSum the
	// float64 bits of the cumulative dwell in seconds; txDwellBuckets
	// the non-cumulative histogram counts (bucket i covers dwell ≤
	// TxDwellBounds[i]; the last is the overflow bucket).
	txDwellEWMA    atomic.Int64
	txDwellSum     atomic.Uint64
	txDwellBuckets [len(TxDwellBounds) + 1]atomic.Uint64
}

// recordTxDwell folds one measured userspace→kernel TX dwell (in
// nanoseconds, already clamp-checked by the caller) into the EWMA and
// the histogram.
func (s *Server) recordTxDwell(nanos int64) {
	for {
		old := s.stats.txDwellEWMA.Load()
		next := nanos
		if old != 0 {
			next = old + (nanos-old)/16
		}
		if s.stats.txDwellEWMA.CompareAndSwap(old, next) {
			break
		}
	}
	sec := float64(nanos) / 1e9
	for {
		old := s.stats.txDwellSum.Load()
		next := math.Float64bits(math.Float64frombits(old) + sec)
		if s.stats.txDwellSum.CompareAndSwap(old, next) {
			break
		}
	}
	i := 0
	for i < len(TxDwellBounds) && sec > TxDwellBounds[i] {
		i++
	}
	s.stats.txDwellBuckets[i].Add(1)
}

// txAdvance returns the Transmit forward-dating the serving loop should
// apply: the dwell EWMA clamped to [0, txAdvanceMax]. Zero until the
// first TX stamp correlates (and always zero when TxStamp is off — the
// EWMA never moves).
func (s *Server) txAdvance() time.Duration {
	d := time.Duration(s.stats.txDwellEWMA.Load())
	if d <= 0 {
		return 0
	}
	if d > txAdvanceMax {
		return txAdvanceMax
	}
	return d
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
	batch   int
	txStamp bool
	stats   counters
}

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
		if cfg.Stratum == 0 {
			cfg.Stratum = 1
		}
		if cfg.Precision == 0 {
			cfg.Precision = -20
		}
		clock := cfg.Clock
		static := ClockSample{
			Leap:      LeapNone,
			Stratum:   cfg.Stratum,
			Precision: cfg.Precision,
			RefID:     cfg.RefID,
		}
		sample = func() ClockSample {
			s := static
			s.Time = clock()
			return s
		}
	}
	return &Server{sample: sample, limit: cfg.Limit, batch: cfg.Batch, txStamp: cfg.TxStamp}, nil
}

// Stats returns a snapshot of the request counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:        s.stats.requests.Load(),
		Replied:         s.stats.replied.Load(),
		Short:           s.stats.short.Load(),
		Malformed:       s.stats.malformed.Load(),
		NonClient:       s.stats.nonClient.Load(),
		RateLimited:     s.stats.rateLimited.Load(),
		WriteErrors:     s.stats.writeErrors.Load(),
		RecvCalls:       s.stats.recvCalls.Load(),
		SendCalls:       s.stats.sendCalls.Load(),
		KernelRx:        s.stats.kernelRx.Load(),
		KernelRxMissing: s.stats.kernelRxMissing.Load(),
		KernelTx:        s.stats.kernelTx.Load(),
		KernelTxMissing: s.stats.kernelTxMissing.Load(),
		StampClamped:    s.stats.stampClamped.Load(),
		TxDwellEWMA:     time.Duration(s.stats.txDwellEWMA.Load()),
		TxDwellSum:      math.Float64frombits(s.stats.txDwellSum.Load()),
	}
	var cum uint64
	for i := range st.TxDwell {
		cum += s.stats.txDwellBuckets[i].Load()
		st.TxDwell[i] = cum
	}
	return st
}

// Serve answers requests on pc until the connection is closed or a
// non-timeout read error occurs; reply WRITE failures are per-packet
// (a spoofed unroutable source must not cost the shard) — counted in
// Stats and skipped. Requests on one socket are processed
// sequentially, which keeps that socket's receive/transmit stamps
// ordered; run several Serve loops (ListenShards) to scale across
// cores.
//
// On Linux amd64/arm64 with a *net.UDPConn transport and Batch > 1,
// Serve runs the batched hot loop: recvmmsg drains up to Batch
// datagrams per syscall, the per-packet pipeline runs over the batch
// in place, and one sendmmsg answers it, with kernel SO_TIMESTAMPING
// RX stamps backdating each reply's Receive field to NIC-adjacent
// arrival. Everywhere else (other platforms, non-UDP transports,
// Batch = 1) the per-packet fallback loop serves with identical
// validation, counting and reply semantics.
func (s *Server) Serve(pc net.PacketConn) error {
	if handled, err := s.serveBatch(pc); handled {
		return err
	}
	return s.servePacket(pc)
}

// servePacket is the portable per-packet serving loop: one ReadFrom
// and one WriteTo syscall per reply.
//
//repro:hotpath
func (s *Server) servePacket(pc net.PacketConn) error {
	var buf [512]byte
	var out [PacketSize]byte
	for {
		n, addr, err := pc.ReadFrom(buf[:])
		if err != nil {
			var nerr net.Error
			//repro:alloc-ok read-error path: errors.As boxes its target only when ReadFrom fails, never per served packet
			if errors.As(err, &nerr) && nerr.Timeout() {
				continue
			}
			return err
		}
		s.stats.recvCalls.Add(1)
		s.stats.requests.Add(1)
		// The rate limiter runs before any parsing: an over-budget
		// prefix must not buy header validation, let alone a clock
		// sample. A nil limiter costs one predictable branch.
		if s.limit != nil && !s.limit.AllowAddr(addr) {
			s.stats.rateLimited.Add(1)
			continue
		}
		if !s.handlePacket(buf[:n], &out, 0, 0) {
			continue
		}
		s.stats.sendCalls.Add(1)
		if _, err := pc.WriteTo(out[:], addr); err != nil {
			// Reply write failures are per-packet, not per-server: a
			// request from a spoofed broadcast source (EACCES) or a
			// transient ENOBUFS must cost one counted drop, not the
			// shard — and with fail-fast shards, not the whole relay.
			// Only a closed socket ends the loop.
			s.stats.writeErrors.Add(1)
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			continue
		}
		s.stats.replied.Add(1)
	}
}

// handlePacket is the per-packet serving pipeline over caller-owned
// buffers: validate the datagram in `in` (mutated in place for the
// v5+ version clamp), stamp one clock sample, and marshal the reply
// into out. It returns true when out holds a reply to send; drops are
// counted internally (short, malformed, non-client). The caller owns
// the surrounding concerns — counting the request, rate limiting,
// sending the reply and counting its outcome — because those differ
// between the per-packet and batched loops while this pipeline must
// not.
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
		s.stats.short.Add(1)
		return false
	}
	ver := (in[0] >> 3) & 0x7
	if ver == 0 {
		s.stats.malformed.Add(1)
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
		s.stats.malformed.Add(1)
		return false
	}
	if req.Mode != ModeClient {
		s.stats.nonClient.Add(1)
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
