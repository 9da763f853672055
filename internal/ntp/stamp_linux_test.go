//go:build linux && (amd64 || arm64)

package ntp

import (
	"encoding/binary"
	"net"
	"sort"
	"syscall"
	"testing"
	"time"
)

// extErrCmsg builds a plausible IP_RECVERR companion control message
// (level IPPROTO_IP, type 11, sock_extended_err payload) — the cmsg
// that precedes the timestamp on every real error-queue read and that
// the walker must skip.
func extErrCmsg() []byte {
	b := make([]byte, 32)
	binary.LittleEndian.PutUint64(b[0:8], 32)
	binary.LittleEndian.PutUint32(b[8:12], uint32(syscall.IPPROTO_IP))
	binary.LittleEndian.PutUint32(b[12:16], 11) // IP_RECVERR
	binary.LittleEndian.PutUint32(b[16:20], uint32(syscall.ENOMSG))
	b[20] = 4 // SO_EE_ORIGIN_TIMESTAMPING
	return b
}

// TestParseTxTimestamp drives the shared walker over the control-message
// shapes specific to error-queue reads: the SCM_TIMESTAMPING cmsg in
// the company of the sock_extended_err it always travels with, plus
// the same hostile/truncated shapes the RX table covers.
func TestParseTxTimestamp(t *testing.T) {
	cases := []struct {
		name     string
		oob      []byte
		wantSec  int64
		wantNsec int64
		wantOK   bool
	}{
		{"stamp alone", tsCmsg(1700000000, 42), 1700000000, 42, true},
		{"after sock_extended_err", append(extErrCmsg(), tsCmsg(99, 7)...), 99, 7, true},
		{"before sock_extended_err", append(tsCmsg(99, 7), extErrCmsg()...), 99, 7, true},
		{"sock_extended_err only", extErrCmsg(), 0, 0, false},
		{"empty", nil, 0, 0, false},
		{"truncated stamp after err", append(extErrCmsg(), tsCmsg(1, 2)[:20]...), 0, 0, false},
		{"zero stamp", tsCmsg(0, 0), 0, 0, false},
		{"nsec overflow", tsCmsg(5, 2e9), 0, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sec, nsec, ok := parseTxTimestamp(tc.oob)
			if sec != tc.wantSec || nsec != tc.wantNsec || ok != tc.wantOK {
				t.Errorf("parseTxTimestamp = (%d, %d, %v), want (%d, %d, %v)",
					sec, nsec, ok, tc.wantSec, tc.wantNsec, tc.wantOK)
			}
		})
	}
}

// FuzzParseTxTimestamp: the error-queue walker has the same hostile
// environment as the RX walker — no byte sequence may panic it or
// yield an out-of-range stamp.
func FuzzParseTxTimestamp(f *testing.F) {
	f.Add(append(extErrCmsg(), tsCmsg(1700000000, 123456789)...))
	f.Add(extErrCmsg())
	f.Add([]byte{})
	f.Add(make([]byte, 15))
	hostile := append(extErrCmsg(), tsCmsg(1, 2)...)
	binary.LittleEndian.PutUint64(hostile[0:8], ^uint64(0))
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, oob []byte) {
		sec, nsec, ok := parseTxTimestamp(oob)
		if ok && (sec < 0 || nsec < 0 || nsec >= 1e9) {
			t.Errorf("accepted out-of-range stamp (%d, %d)", sec, nsec)
		}
		if !ok && (sec != 0 || nsec != 0) {
			t.Errorf("ok=false with nonzero stamp (%d, %d)", sec, nsec)
		}
	})
}

// replyBytes marshals a server reply whose Transmit field carries the
// given correlation cookie.
func replyBytes(cookie uint64) [PacketSize]byte {
	p := Packet{Version: 4, Mode: ModeServer, Transmit: Time64(cookie)}
	return p.Marshal()
}

// TestTxPayloadCookie covers the tail-relative cookie read across the
// header prefixes the kernel may loop back: none, IPv4+UDP (28 bytes),
// IPv6+UDP (48 bytes), and short garbage.
func TestTxPayloadCookie(t *testing.T) {
	const want = 0xDEADBEEFCAFE0123
	reply := replyBytes(want)
	for _, tc := range []struct {
		name   string
		prefix int
	}{
		{"bare payload", 0},
		{"ipv4+udp prefix", 28},
		{"ipv6+udp prefix", 48},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pkt := make([]byte, tc.prefix+PacketSize)
			copy(pkt[tc.prefix:], reply[:])
			got, ok := txPayloadCookie(pkt)
			if !ok || got != want {
				t.Errorf("txPayloadCookie = (%#x, %v), want (%#x, true)", got, ok, uint64(want))
			}
		})
	}
	if _, ok := txPayloadCookie(reply[:PacketSize-1]); ok {
		t.Error("txPayloadCookie accepted a short payload")
	}
	if _, ok := txPayloadCookie(nil); ok {
		t.Error("txPayloadCookie accepted nil")
	}
}

// newTestTxLoop hand-assembles the error-queue half of an mmsgIO, as
// if TX stamping had been armed on a live socket.
func newTestTxLoop(t *testing.T, s *Server) *mmsgIO {
	t.Helper()
	return &mmsgIO{
		srv:        s,
		txStamping: true,
		errPkt:     make([]byte, errBatch*errBufSize),
		errOob:     make([]byte, errBatch*oobSize),
		erriovs:    make([]syscall.Iovec, errBatch),
		errmsgs:    make([]mmsghdr, errBatch),
		txRing:     make([]txRingEntry, txRingSize),
	}
}

// queueTxStamp plants one looped-back packet in error-queue slot i: a
// fake IP/UDP header prefix, the reply payload carrying the cookie,
// and an SCM_TIMESTAMPING cmsg (preceded by the sock_extended_err a
// real read carries) stamping the given instant.
func queueTxStamp(bl *mmsgIO, slot, prefix int, cookie uint64, stamp time.Time) {
	reply := replyBytes(cookie)
	off := slot * errBufSize
	for i := 0; i < prefix; i++ {
		bl.errPkt[off+i] = 0xAA
	}
	copy(bl.errPkt[off+prefix:], reply[:])
	bl.errmsgs[slot].nrecv = uint32(prefix + PacketSize)
	oob := append(extErrCmsg(), tsCmsg(stamp.Unix(), int64(stamp.Nanosecond()))...)
	copy(bl.errOob[slot*oobSize:], oob)
	bl.errmsgs[slot].hdr.Controllen = uint64(len(oob))
}

// recordSent plants a sent-reply record in the correlation ring, as
// send does after a successful sendmmsg.
func recordSent(bl *mmsgIO, cookie uint64, sent int64) {
	bl.txRingInsert(cookie, sent)
}

// TestTxStampCorrelation is the deterministic end-to-end check of the
// error-queue pipeline with pre-queued packets: correlated stamps feed
// the dwell EWMA and the histogram, uncorrelatable cookies and stamps
// outside the trust clamp are counted and kept out of it.
func TestTxStampCorrelation(t *testing.T) {
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock(), TxStamp: true})
	if err != nil {
		t.Fatal(err)
	}
	bl := newTestTxLoop(t, srv)
	proc := time.Now()

	const dwell = 250 * time.Microsecond
	recordSent(bl, 0x1111, proc.UnixNano())
	recordSent(bl, 0x2222, proc.UnixNano())
	recordSent(bl, 0x3333, proc.UnixNano())
	queueTxStamp(bl, 0, 28, 0x1111, proc.Add(dwell))         // IPv4-shaped, correlates
	queueTxStamp(bl, 1, 48, 0x2222, proc.Add(dwell))         // IPv6-shaped, correlates
	queueTxStamp(bl, 2, 28, 0x9999, proc.Add(dwell))         // never sent: uncorrelatable
	queueTxStamp(bl, 3, 28, 0x3333, proc.Add(2*time.Second)) // clock step: outside clamp

	bl.processTxStamps(4)
	st := srv.Stats()
	if st.KernelTx != 2 {
		t.Errorf("KernelTx = %d, want 2", st.KernelTx)
	}
	if st.KernelTxMissing != 2 {
		t.Errorf("KernelTxMissing = %d, want 2 (one uncorrelatable, one clamped)", st.KernelTxMissing)
	}
	if st.StampClamped != 1 {
		t.Errorf("StampClamped = %d, want 1", st.StampClamped)
	}
	if st.TxDwellEWMA != dwell {
		t.Errorf("TxDwellEWMA = %v, want %v (two equal samples)", st.TxDwellEWMA, dwell)
	}
	if adv := srv.txAdvance(); adv != dwell {
		t.Errorf("txAdvance = %v, want %v", adv, dwell)
	}
	// 250 µs falls in the (1e-4, 1e-3] bucket; cumulative counts mean
	// every later bucket (and the total) sees both samples.
	if st.TxDwell[2] != 0 || st.TxDwell[3] != 2 || st.TxDwell[len(st.TxDwell)-1] != 2 {
		t.Errorf("TxDwell cumulative buckets = %v, want both samples first at index 3", st.TxDwell)
	}
	if st.TxDwellSum <= 0 {
		t.Errorf("TxDwellSum = %v, want > 0", st.TxDwellSum)
	}
}

// TestTxAdvanceClamp: the applied forward-dating is the EWMA clamped
// to [0, txAdvanceMax], and zero before any stamp correlates.
func TestTxAdvanceClamp(t *testing.T) {
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock(), TxStamp: true})
	if err != nil {
		t.Fatal(err)
	}
	if adv := srv.txAdvance(); adv != 0 {
		t.Errorf("txAdvance before any stamp = %v, want 0", adv)
	}
	srv.recordTxDwell(5 * time.Millisecond) // pathological dwell
	if ewma := srv.Stats().TxDwellEWMA; ewma != 5*time.Millisecond {
		t.Errorf("TxDwellEWMA = %v, want 5ms seed", ewma)
	}
	if adv := srv.txAdvance(); adv != txAdvanceMax {
		t.Errorf("txAdvance = %v, want clamped to %v", adv, txAdvanceMax)
	}
}

// TestTxDrainZeroAlloc is the steady-state allocation gate for the
// error-queue pipeline: correlating and recording a full drain batch
// must not allocate (AllocsPerRun=0, backing the //repro:hotpath
// static gate on processTxStamps).
func TestTxDrainZeroAlloc(t *testing.T) {
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock(), TxStamp: true})
	if err != nil {
		t.Fatal(err)
	}
	bl := newTestTxLoop(t, srv)
	proc := time.Now()
	for i := 0; i < errBatch; i++ {
		ck := uint64(0x4000 + i)
		recordSent(bl, ck, proc.UnixNano())
		queueTxStamp(bl, i, 28, ck, proc.Add(100*time.Microsecond))
	}
	allocs := testing.AllocsPerRun(200, func() {
		bl.processTxStamps(errBatch)
		bl.resetErrHeaders()
	})
	if allocs != 0 {
		t.Errorf("error-queue processing allocates %.1f times per drain, want 0", allocs)
	}
}

// TestBatchTxStampCoverage drives a real loopback socket with TxStamp
// armed: the error-queue pipeline must correlate a kernel TX stamp for
// ≥99% of replies, and the measured dwell must start forward-dating
// Transmit without ever violating Tb ≤ Te ordering for clients.
func TestBatchTxStampCoverage(t *testing.T) {
	const queued = 64
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock(), TxStamp: true})
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
	// TX stamps loop back asynchronously: the drain after flush catches
	// most, the POLLERR wake catches stragglers. Poke the socket while
	// polling so the parked loop keeps waking to drain.
	var st Stats
	deadline := time.Now().Add(2 * time.Second)
	for {
		st = srv.Stats()
		if st.KernelTx+st.KernelTxMissing >= st.Replied && st.Replied >= queued {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		cli.Write(clientPacket(4))
		cli.Read(buf)
		time.Sleep(5 * time.Millisecond)
	}
	if st.KernelTx == 0 {
		if st.KernelTxMissing > 0 {
			t.Skipf("kernel provided no correlatable TX timestamps here (%d missing)", st.KernelTxMissing)
		}
		t.Skipf("kernel looped no TX timestamps on this socket (replied=%d)", st.Replied)
	}
	if cov := float64(st.KernelTx) / float64(st.Replied); cov < 0.99 {
		t.Errorf("TX stamp coverage = %.3f (%d/%d replies), want >= 0.99", cov, st.KernelTx, st.Replied)
	}
	if st.TxDwellEWMA <= 0 || st.TxDwellEWMA > stampMaxAge {
		t.Errorf("TxDwellEWMA = %v, want a positive dwell within the trust clamp", st.TxDwellEWMA)
	}
	t.Logf("TX stamps: %d/%d replies correlated, dwell EWMA %v, clamped %d",
		st.KernelTx, st.Replied, st.TxDwellEWMA, st.StampClamped)
}

// TestClientStampsDistrustedAcrossClockStep: after the userspace wall
// clock steps 2 s ahead of the clock the kernel stamps with, the send
// stamp reads 2 s before the wall read that preceded it (past the 1 ms
// slack) and the receive stamp 2 s older than the wall read after it
// (past the 1 s maximum age). Both are distrusted and counted as
// clamped, and Ta and Tf stay the userspace counter readings. The step
// is injected through Client.now, so the outcome does not depend on
// scheduling.
func TestClientStampsDistrustedAcrossClockStep(t *testing.T) {
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
	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	mono, period := MonotonicCounter()
	var reads []uint64
	c := NewClient(conn, func() uint64 { v := mono(); reads = append(reads, v); return v }, 2*time.Second)
	if !c.EnableKernelStamps(period) {
		t.Skip("kernel stamping not armable on this socket")
	}
	if raw, err := c.Exchange(); err != nil || !raw.KernelTa || !raw.KernelTf {
		t.Skipf("kernel did not deliver both client stamps before the step (err %v, %+v)", err, raw)
	}

	c.now = func() time.Time { return time.Now().Add(2 * time.Second) }
	reads = reads[:0]
	raw, err := c.Exchange()
	if err != nil {
		t.Fatal(err)
	}
	if raw.KernelTa || raw.KernelTf || raw.Clamped != 2 {
		t.Errorf("kernel stamps trusted across a 2 s step: KernelTa=%v KernelTf=%v Clamped=%d, want false, false, 2", raw.KernelTa, raw.KernelTf, raw.Clamped)
	}
	if len(reads) != 2 || raw.Ta != reads[0] || raw.Tf != reads[1] {
		t.Errorf("Ta, Tf = %d, %d, want the userspace readings %v", raw.Ta, raw.Tf, reads)
	}
	if ss := c.StampStats(); ss.Clamped != 2 || ss.TxStamped != 1 || ss.RxStamped != 1 {
		t.Errorf("stamp stats %+v, want 2 clamped and only the pre-step exchange stamped", ss)
	}
}

// quantile returns the p-quantile of xs (sorted copy, nearest rank).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p * float64(len(s)-1))
	return s[i]
}

// TestClientKernelStampAB is the loopback A/B the tentpole is gated
// on: against the same in-process batched server, a kernel-stamped
// client must report nonzero kernel-vs-userspace Ta/Tf delta medians —
// the measured host stamping noise the correction sheds — while a
// control client without kernel stamps reports none.
func TestClientKernelStampAB(t *testing.T) {
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock(), TxStamp: true})
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

	counter, period := MonotonicCounter()
	exchange := func(c *Client, n int) (taDeltas, tfDeltas []float64) {
		t.Helper()
		for i := 0; i < n; i++ {
			raw, err := c.Exchange()
			if err != nil {
				t.Fatalf("exchange %d: %v", i, err)
			}
			if raw.KernelTa {
				taDeltas = append(taDeltas, raw.TaDelta)
			}
			if raw.KernelTf {
				tfDeltas = append(tfDeltas, raw.TfDelta)
			}
		}
		return
	}

	// Control arm: userspace stamps only.
	connB, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer connB.Close()
	ctrl := NewClient(connB, counter, 2*time.Second)
	taB, tfB := exchange(ctrl, 5)
	if len(taB) != 0 || len(tfB) != 0 {
		t.Fatalf("control client reported kernel stamps without arming: ta=%d tf=%d", len(taB), len(tfB))
	}
	if ss := ctrl.StampStats(); ss.TxStamped != 0 || ss.RxStamped != 0 {
		t.Fatalf("control client stamp stats moved: %+v", ss)
	}

	// Kernel arm.
	connA, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	kc := NewClient(connA, counter, 2*time.Second)
	if !kc.EnableKernelStamps(period) {
		t.Skip("kernel stamping not armable on this socket")
	}
	const rounds = 20
	taA, tfA := exchange(kc, rounds)
	ss := kc.StampStats()
	if ss.TxStamped+ss.TxMissing != rounds || ss.RxStamped+ss.RxMissing != rounds {
		t.Errorf("stamp accounting: %+v does not cover %d exchanges", ss, rounds)
	}
	if len(taA) == 0 && len(tfA) == 0 {
		t.Skipf("kernel provided no client stamps here: %+v", ss)
	}
	taP50, tfP50 := quantile(taA, 0.5), quantile(tfA, 0.5)
	t.Logf("client stamp noise over %d exchanges: Ta delta p50=%.1fµs p90=%.1fµs (n=%d), Tf delta p50=%.1fµs p90=%.1fµs (n=%d), EWMA ta=%.1fµs tf=%.1fµs",
		rounds, taP50*1e6, quantile(taA, 0.9)*1e6, len(taA),
		tfP50*1e6, quantile(tfA, 0.9)*1e6, len(tfA),
		ss.TaDelta*1e6, ss.TfDelta*1e6)
	if len(taA) > 0 && taP50 <= 0 {
		t.Errorf("Ta kernel-vs-userspace delta p50 = %v, want > 0 (the TX dwell the stamp sheds)", taP50)
	}
	if len(tfA) > 0 && tfP50 <= 0 {
		t.Errorf("Tf kernel-vs-userspace delta p50 = %v, want > 0 (the RX dwell the stamp sheds)", tfP50)
	}
}

// TestRxTimestampLoopback: a socket armed by EnableRxTimestamping gets
// a kernel RX stamp with a loopback datagram read by ReadMsgUDP, and
// RxTimestampFromOOB returns it within stampMaxAge of the wall clock.
func TestRxTimestampLoopback(t *testing.T) {
	rx, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	if !EnableRxTimestamping(rx) {
		t.Fatal("EnableRxTimestamping refused on Linux")
	}
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if _, err := tx.Write([]byte("stamp me")); err != nil {
		t.Fatal(err)
	}
	if err := rx.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var buf [64]byte
	var oob [oobSize]byte
	_, oobn, _, _, err := rx.ReadMsgUDP(buf[:], oob[:])
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	stamp, ok := RxTimestampFromOOB(oob[:oobn])
	if !ok {
		t.Fatalf("no RX stamp in %d control bytes", oobn)
	}
	if d := now.Sub(stamp); d < -stampMaxAge || d > stampMaxAge {
		t.Fatalf("RX stamp %v is %v from the wall clock", stamp, d)
	}
	if _, ok := RxTimestampFromOOB(nil); ok {
		t.Fatal("a stamp from no control bytes")
	}
}
