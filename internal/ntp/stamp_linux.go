//go:build linux && (amd64 || arm64)

// Kernel timestamping primitives shared by the serving loop's
// recvmmsg/sendmmsg packet I/O and the client exchange path: SO_TIMESTAMPING arming, the defensive
// SCM_TIMESTAMPING control-message walker (one walker for the RX cmsg
// and the TX error-queue cmsg — the kernel uses the same message type
// for both), error-queue payload↔reply correlation by the embedded
// Transmit cookie, and the client-side state that moves Ta to the
// kernel's transmit instant and Tf to the kernel's arrival instant.
//
// The syscall package is used directly (this repository deliberately
// avoids x/sys/unix); SO_TIMESTAMPING is defined locally for the two
// supported architectures.

package ntp

import (
	"encoding/binary"
	"net"
	"syscall"
	"time"
	"unsafe"
)

const (
	// soTimestamping is SO_TIMESTAMPING from asm-generic/socket.h (37
	// on amd64 and arm64; the value differs only on parisc and sparc,
	// which the build tag excludes). The same value is the
	// SCM_TIMESTAMPING control-message type.
	soTimestamping  = 37
	scmTimestamping = 37

	// SOF_TIMESTAMPING flags: generate software RX and/or TX
	// timestamps and report them. Hardware stamps are deliberately not
	// requested — they come from the NIC's PHC, a clock not comparable
	// with CLOCK_REALTIME, so an age computed against them would be
	// garbage. TX stamps loop the sent packet back on the socket error
	// queue with the stamp attached as an SCM_TIMESTAMPING cmsg.
	sofTimestampingTxSoftware = 1 << 1
	sofTimestampingRxSoftware = 1 << 3
	sofTimestampingSoftware   = 1 << 4
)

// armTimestamping sets the SO_TIMESTAMPING flags on the socket;
// failure (old kernel, exotic socket) just means stamps never arrive
// and every consumer falls back to userspace time, counted per path.
func armTimestamping(rc syscall.RawConn, flags int) bool {
	var serr error
	err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soTimestamping, flags)
	})
	return err == nil && serr == nil
}

// parseStampCmsg walks a control-message buffer for the kernel's
// SCM_TIMESTAMPING message and returns the software timestamp
// (CLOCK_REALTIME seconds/nanoseconds) from ts[0]. ok=false when the
// message is absent, truncated, malformed, or carries an all-zero
// software slot (hardware-only stamping). The walk is defensive — oob
// comes from the kernel, but the fuzz targets feed it garbage to
// guarantee no slice of bytes can panic the hot loop. Non-matching
// cmsgs (e.g. the sock_extended_err that accompanies every error-queue
// read, or SO_RXQ_OVFL) are skipped, which is what makes one walker
// serve both the RX path and the TX error-queue path.
//
//repro:hotpath
func parseStampCmsg(oob []byte) (sec, nsec int64, ok bool) {
	const cmsgHdr = 16 // 64-bit cmsghdr: Len uint64, Level int32, Type int32
	for len(oob) >= cmsgHdr {
		l := binary.LittleEndian.Uint64(oob[0:8])
		level := int32(binary.LittleEndian.Uint32(oob[8:12]))
		typ := int32(binary.LittleEndian.Uint32(oob[12:16]))
		if l < cmsgHdr || l > uint64(len(oob)) {
			return 0, 0, false
		}
		if level == syscall.SOL_SOCKET && typ == scmTimestamping {
			// scm_timestamping is three timespecs; ts[0] is the
			// software stamp. A shorter payload is a truncated cmsg.
			if l < cmsgHdr+16 {
				return 0, 0, false
			}
			sec = int64(binary.LittleEndian.Uint64(oob[16:24]))
			nsec = int64(binary.LittleEndian.Uint64(oob[24:32]))
			if sec == 0 && nsec == 0 {
				return 0, 0, false
			}
			if nsec < 0 || nsec >= 1e9 || sec < 0 {
				return 0, 0, false
			}
			return sec, nsec, true
		}
		adv := (l + 7) &^ 7 // CMSG_ALIGN
		if adv >= uint64(len(oob)) {
			return 0, 0, false
		}
		oob = oob[adv:]
	}
	return 0, 0, false
}

// parseRxTimestamp extracts the kernel's software receive timestamp
// from a received datagram's control messages.
//
//repro:hotpath
func parseRxTimestamp(oob []byte) (sec, nsec int64, ok bool) {
	return parseStampCmsg(oob)
}

// parseTxTimestamp extracts the kernel's software transmit timestamp
// from an error-queue read's control messages. The wire format is the
// same SCM_TIMESTAMPING cmsg the RX path carries; the difference is
// the company it keeps (a sock_extended_err cmsg rides along, which
// the walker skips) and that the datagram body is the looped-back sent
// packet rather than a received one.
//
//repro:hotpath
func parseTxTimestamp(oob []byte) (sec, nsec int64, ok bool) {
	return parseStampCmsg(oob)
}

// txPayloadCookie extracts the Transmit-field correlation cookie from
// an error-queue payload. The looped-back packet is the reply exactly
// as the kernel sent it, prefixed by whatever headers the family
// prepends (28 bytes of IP+UDP on IPv4, 48 on IPv6, none when the
// kernel loops payload only) — but the NTP packet is always the
// trailing PacketSize bytes, so the cookie is read relative to the
// tail rather than by guessing the header length.
//
//repro:hotpath
func txPayloadCookie(pkt []byte) (uint64, bool) {
	if len(pkt) < PacketSize {
		return 0, false
	}
	off := len(pkt) - PacketSize
	return binary.BigEndian.Uint64(pkt[off+40 : off+48]), true
}

// EnableRxTimestamping arms software RX timestamping on a UDP socket
// for callers outside the serving loop (cmd/loadgen measures reply
// latency from kernel arrival stamps). Returns whether the option was
// accepted.
func EnableRxTimestamping(uc *net.UDPConn) bool {
	rc, err := uc.SyscallConn()
	if err != nil {
		return false
	}
	return armTimestamping(rc, sofTimestampingRxSoftware|sofTimestampingSoftware)
}

// RxTimestampFromOOB returns the kernel software RX stamp from the
// control bytes of a ReadMsgUDP, if one is present.
func RxTimestampFromOOB(oob []byte) (time.Time, bool) {
	sec, nsec, ok := parseRxTimestamp(oob)
	if !ok {
		return time.Time{}, false
	}
	return time.Unix(sec, nsec), true
}

// errOobSize holds the error-queue control messages of one looped-back
// packet: the SCM_TIMESTAMPING cmsg (64 bytes) plus the
// sock_extended_err cmsg that accompanies every MSG_ERRQUEUE read.
const errOobSize = 256

// kernelStamps is a client's kernel-timestamping state: the raw socket
// handle, the counter period for wall→counter conversions, and the
// preallocated buffers the RX reads and error-queue drains run over
// (allocated once at arming; the exchange path reuses them).
type kernelStamps struct {
	uc     *net.UDPConn
	rc     syscall.RawConn
	period float64 // counter seconds per unit

	oob [oobSize]byte // RX control buffer for ReadMsgUDP

	// Error-queue drain state: one preallocated msghdr reading into
	// fixed buffers, plus the closure passed to RawConn.Control
	// (created once — a closure per exchange would allocate). Inputs
	// and results cross the Control callback through the struct.
	epkt  [rxBufSize]byte
	eoob  [errOobSize]byte
	eiov  syscall.Iovec
	emsg  syscall.Msghdr
	drain func(fd uintptr)

	wantCookie uint64
	gotSec     int64
	gotNsec    int64
	got        bool
}

// armKernelStamps arms SO_TIMESTAMPING RX+TX on the client transport.
// Only *net.UDPConn transports qualify (the simulated and injected
// transports of the test suites fall through to userspace stamps).
func (c *Client) armKernelStamps(period float64) bool {
	uc, ok := c.conn.(*net.UDPConn)
	if !ok || period <= 0 {
		return false
	}
	rc, err := uc.SyscallConn()
	if err != nil {
		return false
	}
	if !armTimestamping(rc, sofTimestampingRxSoftware|sofTimestampingTxSoftware|sofTimestampingSoftware) {
		return false
	}
	ks := &kernelStamps{uc: uc, rc: rc, period: period}
	ks.eiov.Base = &ks.epkt[0]
	ks.eiov.Len = uint64(len(ks.epkt))
	ks.emsg.Iov = &ks.eiov
	ks.emsg.Iovlen = 1
	ks.drain = func(fd uintptr) {
		// Bounded drain: stamps for requests that were never matched
		// (timeouts, retries) sit ahead of ours in the queue; skip
		// them, stop when the queue empties or our cookie surfaces.
		for tries := 0; tries < 16; tries++ {
			ks.emsg.Control = &ks.eoob[0]
			ks.emsg.Controllen = uint64(len(ks.eoob))
			ks.emsg.Flags = 0
			n, _, e := syscall.Syscall(syscall.SYS_RECVMSG, fd,
				uintptr(unsafe.Pointer(&ks.emsg)),
				syscall.MSG_ERRQUEUE|syscall.MSG_DONTWAIT)
			if e != 0 {
				return // queue empty (EAGAIN) or unreadable: stamp missing
			}
			sec, nsec, ok := parseTxTimestamp(ks.eoob[:ks.emsg.Controllen])
			if !ok {
				continue
			}
			ck, ok := txPayloadCookie(ks.epkt[:n])
			if !ok || ck != ks.wantCookie {
				continue // an older request's stamp; keep draining
			}
			ks.gotSec, ks.gotNsec, ks.got = sec, nsec, true
			return
		}
	}
	c.ks = ks
	return true
}

// stampWall brackets a send on the wall clock when kernel stamping is
// armed (the kernel's stamps are CLOCK_REALTIME, so the dwell is
// measured wall-to-wall and converted to counter units by the period).
// Zero — and free — when stamping is off.
func (c *Client) stampWall() time.Time {
	if c.ks == nil {
		return time.Time{}
	}
	return c.now()
}

// readReply reads one datagram, capturing the kernel RX stamp from the
// control messages when stamping is armed. Without stamping it is
// exactly the plain conn.Read the exchange always did.
func (c *Client) readReply(b []byte) (int, rxStampInfo, error) {
	ks := c.ks
	if ks == nil {
		n, err := c.conn.Read(b)
		return n, rxStampInfo{}, err
	}
	n, oobn, _, _, err := ks.uc.ReadMsgUDP(b, ks.oob[:])
	if err != nil {
		return n, rxStampInfo{}, err
	}
	info := rxStampInfo{wall: c.now()}
	if sec, nsec, ok := parseRxTimestamp(ks.oob[:oobn]); ok {
		info.kernel = time.Unix(sec, nsec)
	}
	return n, info, nil
}

// applyKernelStamps corrects a matched exchange's Ta/Tf to the kernel's
// transmit/arrival stamps: Tf is backdated by the measured
// kernel-arrival→read-return dwell, and Ta advanced by the measured
// write→kernel-transmit dwell drained from the error queue (correlated
// to this request by the Transmit cookie). Either stamp missing — or
// outside the shared trust clamp — leaves the userspace stamp in place
// and is counted, so coverage is observable per client; clamp hits are
// also reported in raw.Clamped. Corrections
// that would put Tf at or before Ta are both dropped (orderedStamps)
// and counted as missing.
func (c *Client) applyKernelStamps(raw *RawExchange, cookie Time64, taWall time.Time, rx rxStampInfo) {
	ks := c.ks
	if ks == nil {
		return
	}

	userTa, userTf := raw.Ta, raw.Tf
	if !rx.kernel.IsZero() && !rx.wall.IsZero() {
		age, usable, clamped := trustStamp(rx.wall.Sub(rx.kernel))
		if clamped {
			raw.Clamped++
		}
		if units := uint64(age.Seconds() / ks.period); usable && units <= raw.Tf {
			raw.Tf -= units
			raw.KernelTf, raw.TfDelta = true, age.Seconds()
		}
	}

	ks.wantCookie = uint64(cookie)
	ks.got = false
	if err := ks.rc.Control(ks.drain); err == nil && ks.got {
		dwell, usable, clamped := trustStamp(time.Unix(ks.gotSec, ks.gotNsec).Sub(taWall))
		if clamped {
			raw.Clamped++
		}
		if usable {
			raw.Ta += uint64(dwell.Seconds() / ks.period)
			raw.KernelTa, raw.TaDelta = true, dwell.Seconds()
		}
	}

	if raw.Clamped > 0 {
		c.sc.clamped.Add(raw.Clamped)
	}
	var kept bool
	if raw.Ta, raw.Tf, kept = orderedStamps(userTa, userTf, raw.Ta, raw.Tf); !kept {
		raw.KernelTa, raw.KernelTf, raw.TaDelta, raw.TfDelta = false, false, 0, 0
	}
	if raw.KernelTf {
		c.sc.rxStamped.Inc()
		c.sc.tfDelta.Observe(raw.TfDelta, StampDeltaAlpha)
	} else {
		c.sc.rxMissing.Inc()
	}
	if raw.KernelTa {
		c.sc.txStamped.Inc()
		c.sc.taDelta.Observe(raw.TaDelta, StampDeltaAlpha)
	} else {
		c.sc.txMissing.Inc()
	}
}
