//go:build !linux || (!amd64 && !arm64)

// Portable no-op kernel-timestamping stubs: platforms without
// SO_TIMESTAMPING (or without the 64-bit little-endian cmsg layout the
// Linux walker assumes) keep the userspace stamps everywhere. The
// client exchange compiles against the same method set; coverage
// counters simply never move.

package ntp

import (
	"net"
	"time"
)

// kernelStamps has no state on platforms without SO_TIMESTAMPING.
type kernelStamps struct{}

// armKernelStamps reports that kernel stamping is unavailable.
func (c *Client) armKernelStamps(period float64) bool { return false }

// stampWall is zero when kernel stamping is unavailable: the exchange
// never pays a wall-clock read it cannot use.
func (c *Client) stampWall() time.Time { return time.Time{} }

// readReply is the plain transport read.
func (c *Client) readReply(b []byte) (int, rxStampInfo, error) {
	n, err := c.conn.Read(b)
	return n, rxStampInfo{}, err
}

// applyKernelStamps leaves the userspace stamps untouched.
func (c *Client) applyKernelStamps(raw *RawExchange, cookie Time64, taWall time.Time, rx rxStampInfo) {
}

// EnableRxTimestamping reports that kernel RX stamps are unavailable.
func EnableRxTimestamping(uc *net.UDPConn) bool { return false }

// RxTimestampFromOOB never finds a stamp on platforms without
// SO_TIMESTAMPING.
func RxTimestampFromOOB(oob []byte) (time.Time, bool) { return time.Time{}, false }

// newMmsgIO has nothing to offer without recvmmsg/sendmmsg (or on an
// architecture whose syscall numbers and cmsg layout this package does
// not carry): the portable packet I/O serves everything.
func newMmsgIO(s *Server, pc net.PacketConn) (packetIO, *batch) { return nil, nil }
