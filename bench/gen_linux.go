//go:build linux && (amd64 || arm64)

package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/ntp"
)

// The Linux generator socket: sendmmsg/recvmmsg by raw syscall with
// MSG_DONTWAIT, as internal/ntp/batch_linux.go does on the serving
// side, so one generator thread costs less per request than the shard
// it loads. Kernel software RX stamps are armed on the socket, so the
// reply's dwell in the generator's own receive queue can be told apart
// from the server's latency.

// sysSendmmsg is __NR_sendmmsg, which package syscall (frozen before
// kernel 3.0) does not carry.
var sysSendmmsg = map[string]uintptr{"amd64": 307, "arm64": 269}[runtime.GOARCH]

const genOOB = 128 // one scm_timestamping cmsg (64 bytes) with room to spare

type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

type genSock struct {
	conn *net.UDPConn
	rc   syscall.RawConn

	out     [genBatch][pktSize]byte
	nout    int
	in      [genBatch][64]byte
	inLen   [genBatch]int
	inStamp [genBatch]int64 // kernel RX stamp, Unix ns; 0 when absent

	oob   [genBatch][genOOB]byte
	siov  [genBatch]syscall.Iovec
	smsg  [genBatch]mmsghdr
	riov  [genBatch]syscall.Iovec
	rmsg  [genBatch]mmsghdr
	sendF func(fd uintptr)
	recvF func(fd uintptr)
	waitF func(fd uintptr) bool
	off   int // first unsent entry of the current flush
	got   int
	err   error // first hard I/O error
}

func dialGenSock(addr string) (*genSock, error) {
	c, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	s := &genSock{conn: c.(*net.UDPConn)}
	if s.rc, err = s.conn.SyscallConn(); err != nil {
		c.Close()
		return nil, err
	}
	growReceiveBuffer(s.conn, genRcvbuf)
	ntp.EnableRxTimestamping(s.conn) // best effort: without it rx_dwell has no samples
	for i := 0; i < genBatch; i++ {
		s.siov[i] = syscall.Iovec{Base: &s.out[i][0], Len: pktSize}
		s.smsg[i].hdr.Iov, s.smsg[i].hdr.Iovlen = &s.siov[i], 1
		s.riov[i] = syscall.Iovec{Base: &s.in[i][0], Len: uint64(len(s.in[i]))}
		s.rmsg[i].hdr.Iov, s.rmsg[i].hdr.Iovlen = &s.riov[i], 1
		s.rmsg[i].hdr.Control = &s.oob[i][0]
	}
	// The closures are built once: one per call would allocate inside
	// the timed window.
	s.sendF = func(fd uintptr) {
		for s.off < s.nout {
			n, _, e := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&s.smsg[s.off])), uintptr(s.nout-s.off),
				syscall.MSG_DONTWAIT, 0, 0)
			switch {
			case e == 0:
				s.off += int(n)
			case e == syscall.EAGAIN || e == syscall.EINTR || e == syscall.ENOBUFS:
				// Send buffer full: the spin is the back-pressure.
			default:
				if s.err == nil {
					s.err = fmt.Errorf("sendmmsg: %w", e)
				}
				return
			}
		}
	}
	s.recvF = func(fd uintptr) {
		for i := 0; i < genBatch; i++ {
			s.rmsg[i].hdr.Controllen = genOOB
		}
		n, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&s.rmsg[0])), genBatch,
			syscall.MSG_DONTWAIT, 0, 0)
		switch {
		case e == 0:
			s.got = int(n)
		case e == syscall.EAGAIN || e == syscall.EINTR:
		default:
			if s.err == nil {
				s.err = fmt.Errorf("recvmmsg: %w", e)
			}
		}
	}
	s.waitF = func(fd uintptr) bool {
		s.recvF(fd)
		return s.got > 0 || s.err != nil // false parks on the netpoller until readable
	}
	return s, nil
}

// flush sends out[:nout] and empties it; it returns only when the
// kernel has taken every datagram or the socket has failed.
func (s *genSock) flush() {
	s.off = 0
	if err := s.rc.Control(s.sendF); err != nil && s.err == nil {
		s.err = err
	}
	s.nout = 0
}

// recv drains up to genBatch replies into in/inLen/inStamp without
// blocking and returns how many arrived.
func (s *genSock) recv() int {
	s.got = 0
	if err := s.rc.Control(s.recvF); err != nil && s.err == nil {
		s.err = err
	}
	return s.stamp()
}

// recvWait is recv, except that it sleeps until the socket is readable
// or d has passed.
func (s *genSock) recvWait(d time.Duration) int {
	s.got = 0
	if err := s.conn.SetReadDeadline(time.Now().Add(d)); err != nil && s.err == nil {
		s.err = err
	}
	if err := s.rc.Read(s.waitF); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) && s.err == nil {
		s.err = err
	}
	return s.stamp()
}

// stamp fills inLen and inStamp for the datagrams just received.
func (s *genSock) stamp() int {
	for i := 0; i < s.got; i++ {
		s.inLen[i] = int(s.rmsg[i].n)
		s.inStamp[i] = 0
		if cl := s.rmsg[i].hdr.Controllen; cl > 0 && cl <= genOOB {
			if t, ok := ntp.RxTimestampFromOOB(s.oob[i][:cl]); ok {
				s.inStamp[i] = t.UnixNano()
			}
		}
	}
	return s.got
}

func (s *genSock) close() { s.conn.Close() }
