//go:build linux && (amd64 || arm64)

// The kernel-batched packet I/O under the serving loop (loop.go):
// recvmmsg/sendmmsg syscall batching plus SO_TIMESTAMPING kernel
// stamps.
//
// The portable I/O pays two syscalls per reply and has no kernel stamp
// to offer, so every reply carries the scheduler's wakeup latency as
// apparent network delay. This one drains up to batchDepth datagrams
// per recvmmsg into preallocated slabs the loop then works on in place,
// and answers with one sendmmsg — ~2/32 syscalls per reply — while
// parsing each datagram's SCM_TIMESTAMPING control message so the loop
// can backdate the reply's Receive stamp to the kernel's arrival time.
// Every buffer the kernel writes into (packet slab, sockaddr slab,
// control slab, iovec and mmsghdr arrays) is allocated once per shard
// at setup; the steady state allocates nothing (//repro:hotpath on recv
// and send, gated by reprolint and TestBatchProcessZeroAlloc).
//
// It integrates with the Go netpoller through syscall.RawConn:
// recvmmsg runs with MSG_DONTWAIT inside RawConn.Read, returning false
// on EAGAIN so the goroutine parks until the socket is readable
// instead of spinning. A closed socket surfaces as net.ErrClosed from
// RawConn.Read/Write, which is the same shutdown signal the portable
// I/O and the shard supervisor already speak.
//
// The syscall package is used directly (this repository deliberately
// avoids x/sys/unix); SO_TIMESTAMPING and the sendmmsg syscall number
// (frozen out of package syscall before kernel 3.0) are defined
// locally for the two supported architectures.

package ntp

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/ratelimit"
)

const (
	// oobSize holds one scm_timestamping control message (16-byte
	// cmsghdr + three timespecs = 64 bytes) with room for one more
	// cmsg (e.g. SO_RXQ_OVFL) before truncation.
	oobSize = 128

	// errBatch and errBufSize size the TX error-queue drain slabs: one
	// recvmmsg drains up to errBatch looped-back replies, each at most
	// IPv6+UDP headers plus the 48-byte payload (96 bytes) — errBufSize
	// leaves headroom for options. The drain runs after every send, so
	// the queue depth tracks the send batch.
	errBatch   = 16
	errBufSize = 128

	// txRingSize is the reply→send-time correlation ring (open
	// addressed by a hash of the Transmit cookie, txRingProbe-way
	// set-associative). A full probe window evicts the oldest entry —
	// that stamp is counted as KernelTxMissing, never wrong. Sized so
	// a full sendmmsg batch of distinct cookies correlates with
	// negligible collision loss.
	txRingSize  = 512
	txRingProbe = 4
)

// mmsghdr mirrors struct mmsghdr from <sys/socket.h>: one msghdr plus
// the kernel-written datagram length. The trailing pad keeps the
// 64-bit layout the kernel expects when given an array of these.
type mmsghdr struct {
	hdr   syscall.Msghdr
	nrecv uint32
	_     [4]byte
}

// Compile-time layout guards: the kernel ABI expects 64-byte mmsghdr
// entries (56-byte msghdr + length + pad) on both supported
// architectures; a negative array length here breaks the build if the
// struct drifts.
var (
	_ [unsafe.Sizeof(mmsghdr{}) - 64]byte
	_ [64 - unsafe.Sizeof(mmsghdr{})]byte
)

// mmsgIO is one shard's kernel-batched packetIO: the slabs the kernel
// reads and writes, the mmsghdr arrays wired into them once at setup,
// and the RawConn callbacks (created once — a closure per batch would
// be a steady-state allocation).
type mmsgIO struct {
	srv        *Server
	rc         syscall.RawConn
	txStamping bool // SOF_TIMESTAMPING_TX_SOFTWARE armed (ServerConfig.TxStamp)

	pktIn []byte                   // batchDepth × rxBufSize receive slab
	names []syscall.RawSockaddrAny // kernel-written packet sources
	oob   []byte                   // batchDepth × oobSize control slab
	riovs []syscall.Iovec
	rmsgs []mmsghdr
	siovs []syscall.Iovec // fixed, into the batch's reply slots
	smsgs []mmsghdr
	lastN int // receive slots the previous recvmmsg filled

	// TX error-queue drain slabs (allocated only when txStamping) and
	// the cookie→send-time correlation ring.
	errPkt  []byte // errBatch × errBufSize looped-packet slab
	errOob  []byte // errBatch × oobSize control slab
	erriovs []syscall.Iovec
	errmsgs []mmsghdr
	txRing  []txRingEntry

	// Syscall results, carried out of the RawConn callbacks.
	recvN   int
	recvErr syscall.Errno
	sentN   int
	sendErr syscall.Errno
	sendOff int // first unsent smsgs entry of the current send
	sendCnt int // smsgs entries in the current send

	readFn  func(fd uintptr) bool
	writeFn func(fd uintptr) bool
	drainFn func(fd uintptr)
}

// txRingEntry correlates one sent reply (by its Transmit cookie) with
// the wall time its batch was processed, so the error-queue stamp can
// be turned into a userspace→kernel dwell.
type txRingEntry struct {
	cookie uint64
	sent   int64 // the batch's wall read (batch.wall), Unix nanoseconds
}

// txRingIdx hashes a Transmit cookie to its home slot in the
// correlation ring (Fibonacci hashing; the cookie's low bits are
// fractional-second noise, the multiply spreads them across the
// table).
//
//repro:hotpath
func txRingIdx(cookie uint64) int {
	return int((cookie * 0x9E3779B97F4A7C15) >> (64 - 9)) // log2(txRingSize) bits
}

// txRingInsert records a sent reply in the correlation ring: take the
// first free (or same-cookie) slot in the probe window, else evict the
// oldest entry — whose stamp, if it ever loops back, is simply counted
// missing. A cookie of zero marks a free slot; Marshal never emits a
// zero Transmit for a served reply.
//
//repro:hotpath
func (m *mmsgIO) txRingInsert(cookie uint64, sent int64) {
	base := txRingIdx(cookie)
	victim := base
	oldest := int64(1<<63 - 1)
	for p := 0; p < txRingProbe; p++ {
		i := (base + p) & (txRingSize - 1)
		ent := &m.txRing[i]
		if ent.cookie == 0 || ent.cookie == cookie {
			ent.cookie, ent.sent = cookie, sent
			return
		}
		if ent.sent < oldest {
			oldest, victim = ent.sent, i
		}
	}
	m.txRing[victim] = txRingEntry{cookie: cookie, sent: sent}
}

// txRingTake looks a looped-back cookie up in the probe window and
// frees the slot on a hit, keeping ring occupancy proportional to the
// stamps still in flight.
//
//repro:hotpath
func (m *mmsgIO) txRingTake(cookie uint64) (int64, bool) {
	base := txRingIdx(cookie)
	for p := 0; p < txRingProbe; p++ {
		ent := &m.txRing[(base+p)&(txRingSize-1)]
		if ent.cookie == cookie {
			ent.cookie = 0
			return ent.sent, true
		}
	}
	return 0, false
}

// newMmsgIO builds the kernel-batched I/O for pc, or returns nil when
// pc gives no raw fd access (not a *net.UDPConn, wrapped, or already
// closed — the portable I/O will surface whatever is wrong). Receive-
// side mmsghdrs point at fixed per-slot buffers; send-side mmsghdrs
// have fixed iovecs into the batch's reply slots (reply k always lands
// in out[k]) and only their Name/Namelen vary per batch, set in send.
func newMmsgIO(s *Server, pc net.PacketConn) (packetIO, *batch) {
	uc, ok := pc.(*net.UDPConn)
	if !ok {
		return nil, nil
	}
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil, nil
	}
	const depth = batchDepth
	b := newBatch(depth)
	m := &mmsgIO{
		srv:   s,
		rc:    rc,
		pktIn: make([]byte, depth*rxBufSize),
		names: make([]syscall.RawSockaddrAny, depth),
		oob:   make([]byte, depth*oobSize),
		riovs: make([]syscall.Iovec, depth),
		rmsgs: make([]mmsghdr, depth),
		siovs: make([]syscall.Iovec, depth),
		smsgs: make([]mmsghdr, depth),
		lastN: depth,
	}
	for i := 0; i < depth; i++ {
		m.riovs[i].Base = &m.pktIn[i*rxBufSize]
		m.riovs[i].Len = rxBufSize
		m.rmsgs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.names[i]))
		m.rmsgs[i].hdr.Iov = &m.riovs[i]
		m.rmsgs[i].hdr.Iovlen = 1
		m.rmsgs[i].hdr.Control = &m.oob[i*oobSize]

		m.siovs[i].Base = &b.out[i][0]
		m.siovs[i].Len = PacketSize
		m.smsgs[i].hdr.Iov = &m.siovs[i]
		m.smsgs[i].hdr.Iovlen = 1
	}

	// Arm RX stamps always; add TX stamps when configured. A kernel
	// that rejects the combined flags (no TX loopback support) falls
	// back to RX-only rather than losing both; one that rejects RX
	// stamping too serves without, every datagram counted missing.
	rxFlags := sofTimestampingRxSoftware | sofTimestampingSoftware
	if s.txStamp && armTimestamping(rc, rxFlags|sofTimestampingTxSoftware) {
		m.txStamping = true
	} else {
		armTimestamping(rc, rxFlags)
	}
	if m.txStamping {
		m.errPkt = make([]byte, errBatch*errBufSize)
		m.errOob = make([]byte, errBatch*oobSize)
		m.erriovs = make([]syscall.Iovec, errBatch)
		m.errmsgs = make([]mmsghdr, errBatch)
		m.txRing = make([]txRingEntry, txRingSize)
		for i := 0; i < errBatch; i++ {
			m.erriovs[i].Base = &m.errPkt[i*errBufSize]
			m.erriovs[i].Len = errBufSize
			m.errmsgs[i].hdr.Iov = &m.erriovs[i]
			m.errmsgs[i].hdr.Iovlen = 1
			m.errmsgs[i].hdr.Control = &m.errOob[i*oobSize]
		}
		m.drainFn = func(fd uintptr) { m.drainErrqueue(fd) }
	}

	m.readFn = func(fd uintptr) bool {
		n, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&m.rmsgs[0])), uintptr(len(m.rmsgs)),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			// A pending error-queue entry raises POLLERR, which wakes
			// this read without making the receive queue readable;
			// draining here both harvests the TX stamps and clears the
			// condition so the park is not a spin.
			if m.txStamping {
				m.drainErrqueue(fd)
			}
			return false // park on the netpoller until readable
		}
		m.srv.stats.recvCalls.Inc()
		if e != 0 {
			m.recvN, m.recvErr = 0, e
		} else {
			m.recvN, m.recvErr = int(n), 0
		}
		return true
	}
	m.writeFn = func(fd uintptr) bool {
		n, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&m.smsgs[m.sendOff])), uintptr(m.sendCnt-m.sendOff),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false // park until writable (rare for UDP)
		}
		m.srv.stats.sendCalls.Inc()
		if e != 0 {
			m.sentN, m.sendErr = 0, e
		} else {
			m.sentN, m.sendErr = int(n), 0
		}
		return true
	}
	return m, b
}

// recv drains one batch off the socket. Timeouts and EINTR retry, a
// closed socket (or genuine socket failure) returns and lets the shard
// supervisor decide.
//
//repro:hotpath
func (m *mmsgIO) recv(b *batch) (int, error) {
	for {
		// The kernel shrank Namelen/Controllen of the slots it filled
		// last time to the actual lengths and set Flags; left alone it
		// would truncate this batch's sockaddrs and control messages.
		for i := 0; i < m.lastN; i++ {
			m.rmsgs[i].hdr.Namelen = syscall.SizeofSockaddrAny
			m.rmsgs[i].hdr.Controllen = oobSize
			m.rmsgs[i].hdr.Flags = 0
		}
		m.lastN = 0
		if err := m.rc.Read(m.readFn); err != nil {
			var nerr net.Error
			//repro:alloc-ok read-error path: errors.As boxes its target only when the read fails, never per served packet
			if errors.As(err, &nerr) && nerr.Timeout() {
				continue
			}
			return 0, err
		}
		if m.recvErr != 0 {
			if m.recvErr == syscall.EINTR {
				continue
			}
			//repro:alloc-ok socket-failure path: the error value is built once, as the loop ends
			return 0, os.NewSyscallError("recvmmsg", m.recvErr)
		}
		if m.recvN > 0 {
			m.lastN = m.recvN
			m.fill(b, m.recvN)
			return m.recvN, nil
		}
	}
}

// fill describes the n datagrams the kernel just wrote to the loop:
// each one's bytes, its rate-limiter key straight from the raw sockaddr
// (no net.Addr boxing, no net.IP allocation), and its kernel RX stamp.
//
//repro:hotpath
func (m *mmsgIO) fill(b *batch, n int) {
	for i := 0; i < n; i++ {
		b.in[i] = m.pktIn[i*rxBufSize : i*rxBufSize+int(m.rmsgs[i].nrecv)]
		b.key[i], b.keyed[i] = m.prefixKey(i)
		b.rx[i] = time.Time{}
		if sec, nsec, ok := parseRxTimestamp(m.oob[i*oobSize : i*oobSize+int(m.rmsgs[i].hdr.Controllen)]); ok {
			b.rx[i] = time.Unix(sec, nsec)
		}
	}
}

// send transmits the first n compacted replies with as few sendmmsg
// calls as the kernel allows, each aimed at the receive-side name slot
// the kernel filled for its request. Partial sends resume at the first
// unsent message; a per-message failure (spoofed unroutable source,
// transient ENOBUFS) is skipped. Only a closed socket aborts.
//
//repro:hotpath
func (m *mmsgIO) send(b *batch, n int) (int, error) {
	for k := 0; k < n; k++ {
		i := b.src[k]
		m.smsgs[k].hdr.Name = (*byte)(unsafe.Pointer(&m.names[i]))
		m.smsgs[k].hdr.Namelen = m.rmsgs[i].hdr.Namelen
	}
	sent := 0
	m.sendOff, m.sendCnt = 0, n
	for m.sendOff < m.sendCnt {
		if err := m.rc.Write(m.writeFn); err != nil {
			return sent, err
		}
		if m.sendErr != 0 {
			if m.sendErr != syscall.EINTR {
				// sendmmsg failed on the head message without sending
				// anything: move past that one message.
				m.sendOff++
			}
			continue
		}
		if m.txStamping {
			// Record every sent reply's Transmit cookie against the
			// batch's wall read so the looped-back error-queue copy
			// can be correlated into a userspace→kernel dwell.
			wall := b.wall.UnixNano()
			for k := m.sendOff; k < m.sendOff+m.sentN; k++ {
				m.txRingInsert(binary.BigEndian.Uint64(b.out[k][40:]), wall)
			}
		}
		sent += m.sentN
		m.sendOff += m.sentN
	}
	if m.txStamping {
		// Harvest the TX stamps the kernel queued while (and right
		// after) the send; anything not yet looped back is picked up by
		// the next drain or the POLLERR wake.
		_ = m.rc.Control(m.drainFn)
	}
	return sent, nil
}

// drainErrqueue empties the socket error queue of looped-back TX
// copies: each recvmmsg with MSG_ERRQUEUE drains up to errBatch
// entries into the preallocated slabs, processTxStamps correlates them
// to sent replies, and the drain stops when a drain comes back short
// (queue empty). Runs inside a RawConn callback (fd is valid for the
// duration); never blocks.
//
//repro:hotpath
func (m *mmsgIO) drainErrqueue(fd uintptr) {
	for {
		m.resetErrHeaders()
		n, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&m.errmsgs[0])), uintptr(errBatch),
			syscall.MSG_ERRQUEUE|syscall.MSG_DONTWAIT, 0, 0)
		if e != 0 || n == 0 {
			return
		}
		m.processTxStamps(int(n))
		if int(n) < errBatch {
			return
		}
	}
}

// processTxStamps turns n drained error-queue entries into TX dwell
// samples: parse the SCM_TIMESTAMPING cmsg, read the Transmit cookie
// off the looped payload's tail, look up the send time in the
// correlation ring, and feed the clamp-checked dwell into the server's
// EWMA and histogram. Split from drainErrqueue so the deterministic
// correlation test and the zero-alloc gate can drive it with
// hand-built slabs.
//
//repro:hotpath
func (m *mmsgIO) processTxStamps(n int) {
	s := m.srv
	var stamped, missing, clamped uint64
	for i := 0; i < n; i++ {
		oob := m.errOob[i*oobSize : i*oobSize+int(m.errmsgs[i].hdr.Controllen)]
		sec, nsec, ok := parseTxTimestamp(oob)
		if !ok {
			missing++
			continue
		}
		ck, ok := txPayloadCookie(m.errPkt[i*errBufSize : i*errBufSize+int(m.errmsgs[i].nrecv)])
		if !ok {
			missing++
			continue
		}
		sent, ok := m.txRingTake(ck)
		if !ok {
			// Evicted by a colliding cookie (or a stamp for a reply
			// sent before this loop started): uncorrelatable.
			missing++
			continue
		}
		dwell, usable, clamp := trustStamp(time.Unix(sec, nsec).Sub(time.Unix(0, sent)))
		if clamp {
			clamped++
		}
		if !usable {
			// A clock step between the batch's wall read and the kernel
			// stamp; the dwell would poison the EWMA.
			missing++
			continue
		}
		s.recordTxDwell(dwell)
		stamped++
	}
	if stamped > 0 {
		s.stats.kernelTx.Add(stamped)
	}
	if missing > 0 {
		s.stats.kernelTxMissing.Add(missing)
	}
	if clamped > 0 {
		s.stats.stampClamped.Add(clamped)
	}
}

// resetErrHeaders restores the kernel-written header fields of the
// error-queue receive slots before the next drain.
//
//repro:hotpath
func (m *mmsgIO) resetErrHeaders() {
	for i := 0; i < errBatch; i++ {
		m.errmsgs[i].hdr.Controllen = oobSize
		m.errmsgs[i].hdr.Flags = 0
		m.errmsgs[i].nrecv = 0
	}
}

// prefixKey derives the rate-limiter key for packet i straight from
// the raw sockaddr the kernel wrote, mirroring ratelimit.PrefixKey's
// classification (v4 and v4-mapped addresses share the v4 key space).
// ok=false (unknown family) fails open, like ratelimit.AddrKey.
//
//repro:hotpath
func (m *mmsgIO) prefixKey(i int) (uint64, bool) {
	sa := &m.names[i]
	switch sa.Addr.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return ratelimit.PrefixKey4(sa4.Addr), true
	case syscall.AF_INET6:
		sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		return ratelimit.PrefixKey16(&sa6.Addr), true
	}
	return 0, false
}
