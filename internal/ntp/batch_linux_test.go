//go:build linux && (amd64 || arm64)

package ntp

import (
	"encoding/binary"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/ratelimit"
)

// tsCmsg builds a well-formed SCM_TIMESTAMPING control message: 16-byte
// cmsghdr followed by three timespecs, software stamp in ts[0].
func tsCmsg(sec, nsec int64) []byte {
	b := make([]byte, 64)
	binary.LittleEndian.PutUint64(b[0:8], 64)
	binary.LittleEndian.PutUint32(b[8:12], uint32(syscall.SOL_SOCKET))
	binary.LittleEndian.PutUint32(b[12:16], scmTimestamping)
	binary.LittleEndian.PutUint64(b[16:24], uint64(sec))
	binary.LittleEndian.PutUint64(b[24:32], uint64(nsec))
	return b
}

// TestParseRxTimestamp drives the OOB walker over real, absent,
// truncated and hostile control-message buffers: every shape the
// kernel can hand the hot loop, plus shapes only a bug could.
func TestParseRxTimestamp(t *testing.T) {
	// A realistic foreign cmsg to precede the timestamp: SO_RXQ_OVFL
	// (level SOL_SOCKET, type 40) carrying a uint32, padded to 24.
	other := make([]byte, 24)
	binary.LittleEndian.PutUint64(other[0:8], 20)
	binary.LittleEndian.PutUint32(other[8:12], uint32(syscall.SOL_SOCKET))
	binary.LittleEndian.PutUint32(other[12:16], 40)

	cases := []struct {
		name     string
		oob      []byte
		wantSec  int64
		wantNsec int64
		wantOK   bool
	}{
		{"real", tsCmsg(1700000000, 123456789), 1700000000, 123456789, true},
		{"empty", nil, 0, 0, false},
		{"absent", other, 0, 0, false},
		{"after other cmsg", append(append([]byte{}, other...), tsCmsg(42, 7)...), 42, 7, true},
		{"truncated header", tsCmsg(1, 2)[:12], 0, 0, false},
		{"truncated payload", tsCmsg(1, 2)[:24], 0, 0, false},
		{"header only", tsCmsg(1, 2)[:16], 0, 0, false},
		{"zero stamp", tsCmsg(0, 0), 0, 0, false},
		{"negative nsec", tsCmsg(5, -1), 0, 0, false},
		{"nsec overflow", tsCmsg(5, 2e9), 0, 0, false},
		{"negative sec", tsCmsg(-5, 0), 0, 0, false},
		{"len zero", func() []byte { b := tsCmsg(1, 2); binary.LittleEndian.PutUint64(b[0:8], 0); return b }(), 0, 0, false},
		{"len beyond buffer", func() []byte { b := tsCmsg(1, 2); binary.LittleEndian.PutUint64(b[0:8], 1<<40); return b }(), 0, 0, false},
		{"wrong level", func() []byte { b := tsCmsg(1, 2); binary.LittleEndian.PutUint32(b[8:12], 41); return b }(), 0, 0, false},
		{"wrong type", func() []byte { b := tsCmsg(1, 2); binary.LittleEndian.PutUint32(b[12:16], 29); return b }(), 0, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sec, nsec, ok := parseRxTimestamp(tc.oob)
			if sec != tc.wantSec || nsec != tc.wantNsec || ok != tc.wantOK {
				t.Errorf("parseRxTimestamp = (%d, %d, %v), want (%d, %d, %v)",
					sec, nsec, ok, tc.wantSec, tc.wantNsec, tc.wantOK)
			}
		})
	}
}

// FuzzParseRxTimestamp: no byte sequence may panic the OOB walker or
// yield an out-of-range timestamp. The loop trusts the kernel; the
// fuzzer does not.
func FuzzParseRxTimestamp(f *testing.F) {
	f.Add(tsCmsg(1700000000, 123456789))
	f.Add([]byte{})
	f.Add(make([]byte, 15))
	f.Add(tsCmsg(0, 0)[:24])
	hostile := tsCmsg(1, 2)
	binary.LittleEndian.PutUint64(hostile[0:8], ^uint64(0))
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, oob []byte) {
		sec, nsec, ok := parseRxTimestamp(oob)
		if ok && (sec < 0 || nsec < 0 || nsec >= 1e9) {
			t.Errorf("accepted out-of-range stamp (%d, %d)", sec, nsec)
		}
		if !ok && (sec != 0 || nsec != 0) {
			t.Errorf("ok=false with nonzero stamp (%d, %d)", sec, nsec)
		}
	})
}

// TestBatchSyscallReduction is the measured acceptance check for the
// batching itself: with two batches' worth of requests queued in the
// socket before the loop starts, serving them all must cost at least
// 8× fewer syscalls than the portable I/O's two per reply. This is
// deterministic even on a single-core runner, where a closed-loop
// client would never build queue depth.
func TestBatchSyscallReduction(t *testing.T) {
	const queued = 64
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock()})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Queue the whole load in the kernel receive buffer first, so the
	// loop's first recvmmsg sees real depth.
	for i := 0; i < queued; i++ {
		if _, err := cli.Write(clientPacket(4)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond)

	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(pc) }()
	defer func() { pc.Close(); <-done }()

	cli.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 512)
	for i := 0; i < queued; i++ {
		if _, err := cli.Read(buf); err != nil {
			t.Fatalf("reply %d/%d never arrived: %v", i+1, queued, err)
		}
	}
	// The reply counter is bumped after sendmmsg returns, so the last
	// datagram can reach the client a beat before the counter does:
	// poll for settling like the other counter tests.
	var st Stats
	for deadline := time.Now().Add(2 * time.Second); ; {
		st = srv.Stats()
		if st.Replied == queued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replied = %d, want %d", st.Replied, queued)
		}
		time.Sleep(time.Millisecond)
	}
	sys := st.RecvCalls + st.SendCalls
	// Per-packet cost would be 2*queued syscalls; require ≥8× less.
	if sys*8 > 2*st.Replied {
		t.Errorf("served %d replies in %d syscalls (%d recv + %d send): less than an 8x reduction over the portable I/O's %d",
			st.Replied, sys, st.RecvCalls, st.SendCalls, 2*st.Replied)
	}
	if st.KernelRx+st.KernelRxMissing != st.Replied {
		t.Errorf("kernel stamp accounting: KernelRx=%d + KernelRxMissing=%d != Replied=%d",
			st.KernelRx, st.KernelRxMissing, st.Replied)
	}
}

// TestBatchKernelStamps: over a real loopback socket the kernel's RX
// stamps must be observed and must backdate Receive, never past
// Transmit (Tb ≤ Te is what downstream clients rely on). Linux arms
// software RX stamping through a deferred static-key switch
// (net_enable_timestamp queues netstamp_work), so the first datagrams
// after a socket arms SO_TIMESTAMPING can arrive unstamped on a loaded
// machine: the test keeps querying until a stamp is counted, and only a
// kernel that stamps none for 2 s skips it.
func TestBatchKernelStamps(t *testing.T) {
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock()})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(pc) }()
	defer func() { pc.Close(); <-done }()

	deadline := time.Now().Add(2 * time.Second)
	for i := 0; ; i++ {
		reply := rawQuery(t, pc.LocalAddr(), clientPacket(4), true)
		var resp Packet
		if err := resp.Unmarshal(reply); err != nil {
			t.Fatal(err)
		}
		if tb, te := resp.Receive.Seconds(), resp.Transmit.Seconds(); tb > te {
			t.Errorf("exchange %d: Tb %.9f > Te %.9f", i, tb, te)
		}
		st := srv.Stats()
		if st.KernelRx > 0 {
			if i >= 3 {
				return
			}
			continue
		}
		if time.Now().After(deadline) {
			if st.KernelRxMissing > 0 {
				t.Skipf("kernel provided no RX timestamps here in 2 s (%d missing); loop fell back to sample stamps", st.KernelRxMissing)
			}
			t.Fatalf("neither KernelRx nor KernelRxMissing counted over a batched socket: %+v", st)
		}
	}
}

// TestBatchServeIPv6 exercises the AF_INET6 arm of the raw-sockaddr
// path end to end over ::1.
func TestBatchServeIPv6(t *testing.T) {
	lim := ratelimit.New(ratelimit.Config{})
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock(), Limit: lim})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp6", "[::1]:0")
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(pc) }()
	defer func() { pc.Close(); <-done }()

	reply := rawQuery(t, pc.LocalAddr(), clientPacket(4), true)
	var resp Packet
	if err := resp.Unmarshal(reply); err != nil {
		t.Fatal(err)
	}
	if resp.Mode != ModeServer {
		t.Errorf("mode = %v, want server", resp.Mode)
	}
	if lim.Len() == 0 {
		t.Errorf("limiter tracked no prefixes: the v6 raw-sockaddr key path was not taken")
	}
}

// plainConn hides a socket's concrete type, which is how a transport
// that is not a *net.UDPConn looks to Serve: it gets the portable I/O.
type plainConn struct{ net.PacketConn }

// TestPacketIODifferential runs one datagram script over loopback
// through each packetIO under the same loop. Everything the loop counts
// must come out identical; only what the I/O itself contributes may
// differ — its syscall counts, and whether a datagram carried a kernel
// stamp (the portable I/O has none to offer, so all of its packets
// count as missing one).
func TestPacketIODifferential(t *testing.T) {
	nonClient := Packet{Version: 4, Mode: ModeServer}
	nc := nonClient.Marshal()
	script := []struct {
		req   []byte
		reply bool
	}{
		{clientPacket(4), true},
		{make([]byte, 20), false}, // short
		{clientPacket(0), false},  // version 0: malformed
		{nc[:], false},            // not a client request
		{clientPacket(3), true},
		{clientPacket(7), true},                     // served at version 4
		{append(clientPacket(4), 1, 2, 3, 4), true}, // trailing extension bytes
	}
	run := func(wrap func(net.PacketConn) net.PacketConn) Stats {
		t.Helper()
		lim := ratelimit.New(ratelimit.Config{Rate: 1e9, Burst: 1e9})
		srv, err := NewServer(ServerConfig{Clock: SystemServerClock(), Limit: lim})
		if err != nil {
			t.Fatal(err)
		}
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.Serve(wrap(pc)) }()
		defer func() { pc.Close(); <-done }()
		for _, step := range script {
			rawQuery(t, pc.LocalAddr(), step.req, step.reply)
		}
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			st := srv.Stats()
			if st.Requests == uint64(len(script)) && st.Replied == 4 {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("counters never settled: %+v", st)
			}
		}
	}
	portable := run(func(pc net.PacketConn) net.PacketConn { return plainConn{pc} })
	mmsg := run(func(pc net.PacketConn) net.PacketConn { return pc })

	n := uint64(len(script))
	if portable.RecvCalls != n || portable.SendCalls != portable.Replied {
		t.Errorf("portable I/O: %d recv + %d send calls for %d requests, %d replies; want one each",
			portable.RecvCalls, portable.SendCalls, n, portable.Replied)
	}
	if portable.KernelRx != 0 || portable.KernelRxMissing != n {
		t.Errorf("portable I/O: KernelRx=%d KernelRxMissing=%d, want 0 and %d (no kernel stamp to offer)",
			portable.KernelRx, portable.KernelRxMissing, n)
	}
	if mmsg.KernelRx+mmsg.KernelRxMissing != n {
		t.Errorf("mmsg I/O: KernelRx=%d + KernelRxMissing=%d != %d requests", mmsg.KernelRx, mmsg.KernelRxMissing, n)
	}
	for _, st := range []*Stats{&portable, &mmsg} {
		st.RecvCalls, st.SendCalls, st.KernelRx, st.KernelRxMissing = 0, 0, 0, 0
	}
	if portable != mmsg {
		t.Errorf("the two packet I/Os disagree on what the loop counted:\nportable %+v\nmmsg     %+v", portable, mmsg)
	}
}

// onceIO lets the loop run exactly one batch over the wrapped I/O, then
// ends it.
type onceIO struct {
	packetIO
	done bool
}

func (o *onceIO) recv(b *batch) (int, error) {
	if o.done {
		return 0, errScriptDone
	}
	o.done = true
	return o.packetIO.recv(b)
}

// TestMmsgServeZeroAlloc is the runtime half of the //repro:hotpath gate
// on the kernel-batched I/O: a full turn of the loop over a real socket
// — recvmmsg, the per-packet pipeline, sendmmsg, the TX error-queue
// drain — allocates nothing once the slabs exist.
func TestMmsgServeZeroAlloc(t *testing.T) {
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock(), TxStamp: true})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	cli, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	io, b := newMmsgIO(srv, pc)
	if io == nil {
		t.Fatal("no mmsg I/O for a UDP socket")
	}
	const depth = 8
	req := clientPacket(4)
	buf := make([]byte, 512)
	cli.SetReadDeadline(time.Now().Add(10 * time.Second))
	once := &onceIO{packetIO: io}
	var read uint64
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < depth; i++ {
			if _, err := cli.Write(req); err != nil {
				t.Fatal(err)
			}
		}
		// The datagrams may arrive as one batch or several.
		for want := read + depth; read < want; {
			once.done = false
			if err := srv.serve(once, b); err != errScriptDone {
				t.Fatal(err)
			}
			for ; read < srv.Stats().Replied; read++ {
				if _, err := cli.Read(buf); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	if allocs != 0 {
		t.Errorf("one turn of the loop over the mmsg I/O allocates %.1f times, want 0", allocs)
	}
}
