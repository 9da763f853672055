//go:build !linux || (!amd64 && !arm64)

package main

import (
	"errors"
	"net"
	"os"
	"time"
)

// The portable generator socket: plain Write and deadline-bounded
// Read, one datagram per call and no kernel stamps. It keeps the
// benchmark runnable off Linux; its own cost per request is higher,
// which gen.cpu_us_per_req shows.
type genSock struct {
	conn *net.UDPConn

	out     [genBatch][pktSize]byte
	nout    int
	in      [genBatch][64]byte
	inLen   [genBatch]int
	inStamp [genBatch]int64 // always 0 here: no kernel RX stamps
	err     error           // first hard I/O error
}

func dialGenSock(addr string) (*genSock, error) {
	c, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	s := &genSock{conn: c.(*net.UDPConn)}
	growReceiveBuffer(s.conn, genRcvbuf)
	return s, nil
}

func (s *genSock) flush() {
	for i := 0; i < s.nout; i++ {
		if _, err := s.conn.Write(s.out[i][:]); err != nil && s.err == nil {
			s.err = err
		}
	}
	s.nout = 0
}

// past is a read deadline that has always expired: Read then returns
// what is queued, or times out at once.
var past = time.Unix(1, 0)

// read appends arriving datagrams to in[n:] until the deadline passes
// or the slots run out — or, with once set, until one has arrived —
// and returns the new fill.
func (s *genSock) read(n int, deadline time.Time, once bool) int {
	for n < genBatch {
		if err := s.conn.SetReadDeadline(deadline); err != nil {
			if s.err == nil {
				s.err = err
			}
			return n
		}
		k, err := s.conn.Read(s.in[n][:])
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) && s.err == nil {
				s.err = err
			}
			return n
		}
		s.inLen[n] = k
		n++
		if once {
			return n
		}
	}
	return n
}

func (s *genSock) recv() int { return s.read(0, past, false) }

// recvWait is recv, except that it sleeps until a datagram arrives or
// d has passed.
func (s *genSock) recvWait(d time.Duration) int {
	n := s.read(0, time.Now().Add(d), true)
	if n == 0 {
		return 0
	}
	return s.read(n, past, false)
}

func (s *genSock) close() { s.conn.Close() }
