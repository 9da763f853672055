package ntp

import (
	"errors"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// startTestServer runs a stratum-1 server on a loopback UDP socket and
// returns its address and a shutdown func.
func startTestServer(t *testing.T, clock ServerClock) (net.Addr, func()) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(pc)
	}()
	return pc.LocalAddr(), func() {
		pc.Close()
		<-done
	}
}

func dial(t *testing.T, addr net.Addr) net.Conn {
	t.Helper()
	conn, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestClientServerExchange(t *testing.T) {
	addr, stop := startTestServer(t, SystemServerClock())
	defer stop()

	counter, period := MonotonicCounter()
	c := NewClient(dial(t, addr), counter, 2*time.Second)

	raw, err := c.Exchange()
	if err != nil {
		t.Fatal(err)
	}
	if raw.Tf <= raw.Ta {
		t.Errorf("Tf (%d) not after Ta (%d)", raw.Tf, raw.Ta)
	}
	rtt := float64(raw.Tf-raw.Ta) * period
	if rtt <= 0 || rtt > 1 {
		t.Errorf("loopback RTT %v implausible", rtt)
	}
	if raw.Te < raw.Tb {
		t.Errorf("server transmit %v before receive %v", raw.Te, raw.Tb)
	}
	if raw.Stratum != 1 {
		t.Errorf("stratum = %d", raw.Stratum)
	}
	if raw.RefID != RefIDFromString("GPS") {
		t.Errorf("refid = %x", raw.RefID)
	}
}

func TestClientRepeatedExchanges(t *testing.T) {
	addr, stop := startTestServer(t, SystemServerClock())
	defer stop()

	counter, _ := MonotonicCounter()
	c := NewClient(dial(t, addr), counter, 2*time.Second)

	var prevTf uint64
	for i := 0; i < 10; i++ {
		raw, err := c.Exchange()
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if raw.Tf <= prevTf {
			t.Errorf("counter not monotonic across exchanges: %d <= %d", raw.Tf, prevTf)
		}
		prevTf = raw.Tf
	}
}

func TestClientTimeout(t *testing.T) {
	// A socket with no server behind it must produce a timeout error.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr()
	pc.Close() // nothing listening anymore

	counter, _ := MonotonicCounter()
	c := NewClient(dial(t, addr), counter, 200*time.Millisecond)
	if _, err := c.Exchange(); err == nil {
		t.Error("exchange against dead server succeeded")
	}
}

func TestServerIgnoresNonClientPackets(t *testing.T) {
	addr, stop := startTestServer(t, SystemServerClock())
	defer stop()

	conn := dial(t, addr)
	// A server-mode packet must be ignored, then a real request served.
	bogus := Packet{Version: 4, Mode: ModeServer}
	bb := bogus.Marshal()
	if _, err := conn.Write(bb[:]); err != nil {
		t.Fatal(err)
	}
	counter, _ := MonotonicCounter()
	c := NewClient(conn, counter, 2*time.Second)
	if _, err := c.Exchange(); err != nil {
		t.Fatalf("exchange after bogus packet: %v", err)
	}
}

func TestServerKissOfDeathSurfaced(t *testing.T) {
	// A stratum-0 reply must surface as an error, not as data.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		var buf [512]byte
		n, addr, err := pc.ReadFrom(buf[:])
		if err != nil {
			return
		}
		var req Packet
		if err := req.Unmarshal(buf[:n]); err != nil {
			return
		}
		resp := Packet{Version: 4, Mode: ModeServer, Stratum: 0,
			RefID: RefIDFromString("RATE"), Origin: req.Transmit}
		out := resp.Marshal()
		pc.WriteTo(out[:], addr)
	}()

	counter, _ := MonotonicCounter()
	c := NewClient(dial(t, pc.LocalAddr()), counter, 2*time.Second)
	_, err = c.Exchange()
	var kiss *KissError
	if !errors.As(err, &kiss) || kiss.Code != "RATE" {
		t.Errorf("kiss-of-death surfaced as %v, want a *KissError with code RATE", err)
	}
}

func TestMonotonicCounter(t *testing.T) {
	counter, period := MonotonicCounter()
	if period != 1e-9 {
		t.Errorf("period = %v", period)
	}
	a := counter()
	time.Sleep(2 * time.Millisecond)
	b := counter()
	if b <= a {
		t.Error("monotonic counter did not advance")
	}
	if d := float64(b-a) * period; d < 1e-3 || d > 1 {
		t.Errorf("2 ms sleep measured as %v s", d)
	}
}

// TestOrderedStamps: an exchange keeps its kernel-corrected stamps
// only while Tf stays after Ta; an inverted or equal pair falls back to
// the userspace readings.
func TestOrderedStamps(t *testing.T) {
	const userTa, userTf = 1000, 1100
	for _, tc := range []struct {
		name           string
		ta, tf         uint64
		wantTa, wantTf uint64
		wantKept       bool
	}{
		{"inverted", 1060, 1040, userTa, userTf, false},
		{"equal", 1050, 1050, userTa, userTf, false},
		{"ordered", 1020, 1080, 1020, 1080, true},
	} {
		ta, tf, kept := orderedStamps(userTa, userTf, tc.ta, tc.tf)
		if ta != tc.wantTa || tf != tc.wantTf || kept != tc.wantKept {
			t.Errorf("%s: orderedStamps = (%d, %d, %v), want (%d, %d, %v)",
				tc.name, ta, tf, kept, tc.wantTa, tc.wantTf, tc.wantKept)
		}
	}
}

// TestClientOriginCookie: the Transmit field of a request is an
// unpredictable cookie, not a clock reading — fresh on every request
// and nowhere near the wall clock, so an off-path sender cannot guess
// it from the time of day — and a reply that echoes an earlier
// request's cookie is passed over for the one that echoes this one's.
func TestClientOriginCookie(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	const exchanges = 8
	const staleTb, goodTb = 1111, 2222
	cookies := make(chan Time64, exchanges)
	go func() { // a server that answers every request twice: stale cookie first
		var buf [512]byte
		var last Time64
		for {
			n, addr, err := pc.ReadFrom(buf[:])
			if err != nil {
				return
			}
			var req Packet
			if err := req.Unmarshal(buf[:n]); err != nil {
				return
			}
			cookies <- req.Transmit
			for _, r := range []Packet{
				{Origin: last, Receive: Time64FromSeconds(staleTb)},
				{Origin: req.Transmit, Receive: Time64FromSeconds(goodTb)},
			} {
				r.Version, r.Mode, r.Stratum, r.Transmit = 4, ModeServer, 1, r.Receive
				out := r.Marshal()
				pc.WriteTo(out[:], addr)
			}
			last = req.Transmit
		}
	}()

	counter, _ := MonotonicCounter()
	c := NewClient(dial(t, pc.LocalAddr()), counter, 2*time.Second)
	seen := map[Time64]bool{}
	nearNow := 0
	for i := 0; i < exchanges; i++ {
		raw, err := c.Exchange()
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if raw.Tb != goodTb {
			t.Fatalf("exchange %d: took the reply with Tb %v (the stale cookie's), want %v", i, raw.Tb, float64(goodTb))
		}
		ck := <-cookies
		if seen[ck] {
			t.Fatalf("exchange %d: cookie %#x repeats", i, uint64(ck))
		}
		seen[ck] = true
		if d := ck.Seconds() - Time64FromTime(time.Now()).Seconds(); math.Abs(d) < 3600 {
			nearNow++
		}
	}
	// A random cookie reads as a time within the hour with probability
	// 2e-6; a clock reading does every time.
	if nearNow > 1 {
		t.Errorf("%d of %d cookies read as the current time: the origin is predictable", nearNow, exchanges)
	}
}

// TestClientPassesOverImplausibleStamps: a reply that echoes the right
// cookie but carries no Transmit stamp, or one that precedes its own
// Receive stamp, would hand the engine a negative server residence.
// Exchange passes over it and takes the good reply that follows — and,
// when none follows, times out like any lost packet.
func TestClientPassesOverImplausibleStamps(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	const goodTb = 2222
	var sendGood atomic.Bool
	sendGood.Store(true)
	go func() {
		var buf [512]byte
		for {
			n, addr, err := pc.ReadFrom(buf[:])
			if err != nil {
				return
			}
			var req Packet
			if err := req.Unmarshal(buf[:n]); err != nil {
				return
			}
			replies := []Packet{
				{Receive: Time64FromSeconds(1111)},                                    // Transmit unset
				{Receive: Time64FromSeconds(1111), Transmit: Time64FromSeconds(1110)}, // Te < Tb
			}
			if sendGood.Load() {
				replies = append(replies, Packet{Receive: Time64FromSeconds(goodTb), Transmit: Time64FromSeconds(goodTb + 1e-4)})
			}
			for _, r := range replies {
				r.Version, r.Mode, r.Stratum, r.Origin = 4, ModeServer, 1, req.Transmit
				out := r.Marshal()
				pc.WriteTo(out[:], addr)
			}
		}
	}()

	counter, _ := MonotonicCounter()
	c := NewClient(dial(t, pc.LocalAddr()), counter, 200*time.Millisecond)
	raw, err := c.Exchange()
	if err != nil {
		t.Fatalf("exchange behind two implausible replies: %v", err)
	}
	if raw.Tb != goodTb || raw.Te < raw.Tb {
		t.Errorf("took Tb=%v Te=%v, want the good reply (Tb %v, Te after it)", raw.Tb, raw.Te, float64(goodTb))
	}
	sendGood.Store(false)
	if raw, err := c.Exchange(); err == nil {
		t.Errorf("exchange with only implausible replies returned Tb=%v Te=%v, want a timeout", raw.Tb, raw.Te)
	}
}

// TestKissErrorCodes pins what each kiss code asks of the client: DENY
// and RSTR demobilize the association, RATE only slows it, and the error
// text names the code.
func TestKissErrorCodes(t *testing.T) {
	for code, demobilizes := range map[string]bool{"RATE": false, "DENY": true, "RSTR": true} {
		e := &KissError{Code: code}
		if e.Demobilizes() != demobilizes {
			t.Errorf("%s: Demobilizes() = %v, want %v", code, e.Demobilizes(), demobilizes)
		}
		if want := `ntp: kiss-of-death from server (refid "` + code + `")`; e.Error() != want {
			t.Errorf("%s: Error() = %q, want %q", code, e.Error(), want)
		}
	}
}
