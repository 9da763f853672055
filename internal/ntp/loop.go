package ntp

// The serving loop and the packet-I/O seam under it. There is one
// loop: receive a batch, read the wall clock once, run every datagram
// through limit → kernel-stamp trust clamp → handlePacket, compact the
// replies, send the batch, count. What differs between platforms and
// transports is only how a batch is received and sent, and that sits
// behind packetIO: recvmmsg/sendmmsg with kernel timestamps on Linux
// UDP sockets (batch_linux.go), one ReadFrom/WriteTo at a time
// everywhere else (portableIO, below). The loop never asks which one it
// has; the choice is made once per Serve from the build target and the
// transport's type.

import (
	"errors"
	"net"
	"time"

	"repro/internal/ratelimit"
)

const (
	// batchDepth is how many datagrams one receive may return, and so the
	// size of every slab: 32 packets per syscall already cuts the syscall
	// budget 16×, and deeper slabs grow faster than the amortization
	// shrinks.
	batchDepth = 32

	// rxBufSize is one datagram's receive buffer: large enough for any
	// NTP packet with extensions; truncation beyond it is harmless (only
	// the first 48 bytes are parsed).
	rxBufSize = 512
)

// packetIO moves batches of datagrams between a transport and the
// serving loop's slabs. Both calls are per batch; everything per packet
// is a slice index into batch.
type packetIO interface {
	// recv blocks until at least one datagram has arrived and fills
	// in, key, keyed and rx for each; it returns how many. Timeouts and
	// interrupted calls are retried inside; an error is final (a closed
	// socket surfaces as net.ErrClosed).
	recv(b *batch) (int, error)
	// send transmits replies out[0:n], reply k to the source of datagram
	// src[k], and reports how many left. A reply the transport refuses
	// (a spoofed unroutable source, a transient ENOBUFS) is skipped, not
	// fatal; only an error that ends the socket is returned.
	send(b *batch, n int) (sent int, err error)
}

// batch is the slab set the loop and its packetIO share: recv fills the
// request side, the loop fills the reply side, send drains it. The
// backing memory belongs to the packetIO (the kernel reads and writes
// the Linux one in place) and is allocated once per Serve.
type batch struct {
	in    [][]byte    // datagram i, as long as it arrived
	key   []uint64    // rate-limiter prefix key of its source
	keyed []bool      // false: source of no known family, fail open
	rx    []time.Time // its kernel RX stamp; zero when there is none

	out [][PacketSize]byte // reply slots; the loop compacts into out[0:n]
	src []int              // src[k] is the datagram reply k answers

	wall time.Time // the loop's one wall read for this batch
}

func newBatch(depth int) *batch {
	return &batch{
		in:    make([][]byte, depth),
		key:   make([]uint64, depth),
		keyed: make([]bool, depth),
		rx:    make([]time.Time, depth),
		out:   make([][PacketSize]byte, depth),
		src:   make([]int, depth),
	}
}

// trustStamp applies the shared trust clamp (see stampMaxAge) to the
// distance between a kernel stamp and the userspace wall read it is
// compared with: inside the clamp it is used as is; a sub-stampSlack
// negative distance is wall-clock jitter, used as zero; anything else is
// a clock step and the stamp is distrusted. clamped reports the last
// two, which callers count.
//
//repro:hotpath
func trustStamp(d time.Duration) (_ time.Duration, usable, clamped bool) {
	switch {
	case d >= 0 && d <= stampMaxAge:
		return d, true, false
	case d < 0 && d >= -stampSlack:
		return 0, true, true
	}
	return 0, false, true
}

// Serve answers requests on pc until the connection is closed or a
// non-timeout read error occurs; reply WRITE failures are per-packet
// (a spoofed unroutable source must not cost the shard) — counted in
// Stats and skipped. Requests on one socket are processed
// sequentially, which keeps that socket's receive/transmit stamps
// ordered; run several Serve loops (ListenShards) to scale across
// cores.
//
// On Linux amd64/arm64 a *net.UDPConn is served through recvmmsg and
// sendmmsg — up to 32 datagrams per syscall, kernel SO_TIMESTAMPING RX
// stamps backdating each reply's Receive field to NIC-adjacent
// arrival; any other transport or platform is served one ReadFrom and
// one WriteTo at a time by the same loop.
func (s *Server) Serve(pc net.PacketConn) error {
	io, b := newMmsgIO(s, pc)
	if io == nil {
		io, b = &portableIO{srv: s, pc: pc, buf: make([]byte, rxBufSize)}, newBatch(1)
	}
	return s.serve(io, b)
}

// serve is the serving loop.
//
//repro:hotpath
func (s *Server) serve(io packetIO, b *batch) error {
	st := &s.stats
	for {
		n, err := io.recv(b)
		if err != nil {
			return err
		}
		st.requests.Add(uint64(n))
		// One wall read ages every kernel stamp in the batch (the spread
		// within a batch is microseconds, far below stampMaxAge) and
		// anchors the TX-stamp correlation; one dwell lookup forward-dates
		// every reply in it.
		now := s.now()
		b.wall = now
		txAdv := s.txAdvance()
		var limited, stamped, missing, clamped uint64
		nOut := 0
		for i := 0; i < n; i++ {
			// The rate limiter runs before any parsing: an over-budget
			// prefix must not buy header validation, let alone a clock
			// sample. A nil limiter costs one predictable branch.
			if s.limit != nil && b.keyed[i] && !s.limit.Allow(b.key[i]) {
				limited++
				continue
			}
			var rxAge time.Duration
			if rx := b.rx[i]; rx.IsZero() {
				missing++
			} else {
				age, usable, clamp := trustStamp(now.Sub(rx))
				rxAge = age // zero when distrusted: the sample time is safer
				if usable {
					stamped++
				} else {
					missing++
				}
				if clamp {
					clamped++
				}
			}
			if !s.handlePacket(b.in[i], &b.out[nOut], rxAge, txAdv) {
				continue
			}
			b.src[nOut] = i
			nOut++
		}
		if stamped > 0 {
			st.kernelRx.Add(stamped)
		}
		if missing > 0 {
			st.kernelRxMissing.Add(missing)
		}
		if limited > 0 {
			st.rateLimited.Add(limited)
		}
		if clamped > 0 {
			st.stampClamped.Add(clamped)
		}
		if nOut == 0 {
			continue
		}
		sent, err := io.send(b, nOut)
		st.replied.Add(uint64(sent))
		if sent < nOut {
			// Reply write failures are per-packet, not per-server: a
			// request from a spoofed broadcast source (EACCES) or a
			// transient ENOBUFS must cost one counted drop, not the
			// shard — and with fail-fast shards, not the whole relay.
			st.writeErrors.Add(uint64(nOut - sent))
		}
		if err != nil {
			return err
		}
	}
}

// portableIO is the batch-of-one packetIO over net.PacketConn: one
// ReadFrom and one WriteTo per reply, no kernel stamps. It is the only
// implementation off Linux amd64/arm64, and the one any transport that
// is not a *net.UDPConn gets everywhere.
type portableIO struct {
	srv  *Server
	pc   net.PacketConn
	buf  []byte
	addr net.Addr // source of the datagram in buf
}

//repro:hotpath
func (p *portableIO) recv(b *batch) (int, error) {
	for {
		n, addr, err := p.pc.ReadFrom(p.buf)
		if err != nil {
			var nerr net.Error
			//repro:alloc-ok read-error path: errors.As boxes its target only when ReadFrom fails, never per served packet
			if errors.As(err, &nerr) && nerr.Timeout() {
				continue
			}
			return 0, err
		}
		p.srv.stats.recvCalls.Inc()
		p.addr = addr
		b.in[0] = p.buf[:n]
		b.key[0], b.keyed[0] = ratelimit.AddrKey(addr)
		return 1, nil
	}
}

//repro:hotpath
func (p *portableIO) send(b *batch, n int) (int, error) {
	p.srv.stats.sendCalls.Inc()
	if _, err := p.pc.WriteTo(b.out[0][:], p.addr); err != nil {
		if errors.Is(err, net.ErrClosed) {
			return 0, err
		}
		return 0, nil
	}
	return 1, nil
}
