package tscclock

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ntp"
)

func TestDialMultiLiveValidation(t *testing.T) {
	if _, err := DialMultiLive(MultiLiveOptions{}); err == nil {
		t.Error("missing servers accepted")
	}
	if _, err := dialMultiLive(MultiLiveOptions{
		Servers: []string{"a:123", "b:123"},
	}, dialTracked([]*trackedConn{nil, nil})); err == nil {
		t.Error("dial with no server reachable accepted")
	}
}

func TestMultiLiveStep(t *testing.T) {
	addrs := []string{startServer(t).String(), startServer(t).String(), startServer(t).String()}
	m, err := DialMultiLive(MultiLiveOptions{
		Servers: addrs,
		Poll:    50 * time.Millisecond,
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	for i := 0; i < 4; i++ {
		for k := range addrs {
			st, err := m.Step(k)
			if err != nil {
				t.Fatalf("server %d step %d: %v", k, i, err)
			}
			if st.Server != k {
				t.Errorf("status names server %d, want %d", st.Server, k)
			}
			if st.RTT <= 0 || st.RTT > 1 {
				t.Errorf("loopback RTT %v implausible", st.RTT)
			}
		}
	}
	if _, err := m.Step(99); err == nil {
		t.Error("out-of-range step accepted")
	}
	if got := m.Ensemble().Exchanges(); got != 12 {
		t.Errorf("exchanges = %d, want 12", got)
	}
	// All three upstream servers stamp from the same OS clock, so the
	// combined absolute clock must land within milliseconds immediately.
	if d := m.Now().Sub(time.Now()); d > 50*time.Millisecond || d < -50*time.Millisecond {
		t.Errorf("Now() differs from OS clock by %v", d)
	}
	if a, b := m.Counter(), m.Counter(); b < a {
		t.Error("counter not monotonic")
	}
}

func TestMultiLiveRunStaggered(t *testing.T) {
	addrs := []string{startServer(t).String(), startServer(t).String(), startServer(t).String()}
	m, err := DialMultiLive(MultiLiveOptions{
		Servers: addrs,
		Poll:    30 * time.Millisecond,
		Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	var mu sync.Mutex
	steps := map[int]int{}
	err = m.Run(ctx, func(k int, st EnsembleStatus, err error) {
		if err != nil {
			return
		}
		mu.Lock()
		steps[k]++
		mu.Unlock()
	})
	if err != context.DeadlineExceeded {
		t.Errorf("Run returned %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for k := range addrs {
		if steps[k] < 2 {
			t.Errorf("server %d only made %d successful steps", k, steps[k])
		}
	}
}

// TestDialMultiLiveToleratesUnreachable: one dead server does not
// prevent the client from syncing off the others — its slot starts
// disconnected and keeps re-dialing.
func TestDialMultiLiveToleratesUnreachable(t *testing.T) {
	good := startServer(t).String()
	m, err := DialMultiLive(MultiLiveOptions{
		Servers: []string{good, "bad host name without port"},
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("tolerant dial failed: %v", err)
	}
	defer m.Close()
	if _, err := m.Step(0); err != nil {
		t.Fatalf("reachable server step: %v", err)
	}
	if _, err := m.Step(1); err == nil {
		t.Error("step against unresolvable address succeeded")
	}
	ups := m.UpstreamStates()
	if !ups[0].Connected || ups[0].Dials != 1 {
		t.Errorf("slot 0 = %+v, want connected after 1 dial", ups[0])
	}
	if ups[1].Connected || ups[1].DialFailures < 2 {
		t.Errorf("slot 1 = %+v, want disconnected with ≥2 dial failures", ups[1])
	}
}

// trackedConn is a no-network net.Conn stub recording Close calls and
// optionally failing them.
type trackedConn struct {
	closed   int
	closeErr error
}

func (c *trackedConn) Read([]byte) (int, error)  { return 0, errors.New("stub") }
func (c *trackedConn) Write([]byte) (int, error) { return 0, errors.New("stub") }
func (c *trackedConn) Close() error {
	c.closed++
	return c.closeErr
}
func (c *trackedConn) LocalAddr() net.Addr              { return nil }
func (c *trackedConn) RemoteAddr() net.Addr             { return nil }
func (c *trackedConn) SetDeadline(time.Time) error      { return nil }
func (c *trackedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *trackedConn) SetWriteDeadline(time.Time) error { return nil }

// dialTracked returns a dial function handing out the given conns in
// order, failing on a nil entry.
func dialTracked(conns []*trackedConn) func(string) (net.Conn, error) {
	i := 0
	return func(addr string) (net.Conn, error) {
		c := conns[i]
		i++
		if c == nil {
			return nil, errors.New("dial " + addr + ": unreachable")
		}
		return c, nil
	}
}

// TestMultiLiveStepRedialsDisconnected: a slot whose dial failed at
// start is re-dialed (with fresh resolution) by the next Step, and a
// slot that accumulates redialAfterFailures exchange failures tears its
// socket down for the same treatment.
func TestMultiLiveStepRedialsDisconnected(t *testing.T) {
	var mu sync.Mutex
	dials := 0
	conns := []*trackedConn{}
	dial := func(addr string) (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		dials++
		if dials == 1 {
			return nil, errors.New("dial " + addr + ": unreachable")
		}
		c := &trackedConn{}
		conns = append(conns, c)
		return c, nil
	}
	m, err := dialMultiLive(MultiLiveOptions{
		Servers: []string{"a:123", "b:123"},
	}, dial)
	if err != nil {
		t.Fatalf("tolerant dial failed: %v", err)
	}
	defer m.Close()
	if ups := m.UpstreamStates(); ups[0].Connected {
		t.Fatal("slot connected despite failed dial")
	}
	// The next Step re-dials; the stub conn then fails the exchange.
	if _, err := m.Step(0); err == nil {
		t.Fatal("exchange over stub conn succeeded")
	}
	ups := m.UpstreamStates()
	if !ups[0].Connected || ups[0].Dials != 1 || ups[0].DialFailures != 1 {
		t.Fatalf("slot after redial = %+v, want connected, 1 dial, 1 failure", ups[0])
	}
	// Exhaust the failure budget on the live socket: the slot must tear
	// it down and dial a fresh one on the following Step. conns[1] is
	// slot 0's socket (conns[0] went to slot 1 at dial time).
	for i := ups[0].ConsecutiveFailures; i < redialAfterFailures; i++ {
		m.Step(0)
	}
	if ups := m.UpstreamStates(); ups[0].Connected {
		t.Fatal("socket survived the consecutive-failure budget")
	}
	if conns[1].closed != 1 {
		t.Fatalf("worn-out conn closed %d times, want 1", conns[1].closed)
	}
	m.Step(0)
	ups = m.UpstreamStates()
	if !ups[0].Connected || ups[0].Dials != 2 {
		t.Fatalf("slot after second redial = %+v, want connected after 2 dials", ups[0])
	}
}

// TestMultiLiveKissOfDeath: a kiss-of-death is an answer, not a dead
// socket. A server that replies stratum 0 / "RATE" to every request is
// demonstrably reachable, so twenty kisses — well past the redial
// budget — leave the one socket in place and send the poller straight
// to its maximum. A "DENY" or "RSTR" kiss refuses access, and RFC 5905
// §7.4 says the client MUST stop sending: the server sees exactly one
// request however often Step is called, and Run sends none. Either way
// nothing reaches the ensemble.
func TestMultiLiveKissOfDeath(t *testing.T) {
	for _, code := range []string{"RATE", "DENY", "RSTR"} {
		t.Run(code, func(t *testing.T) {
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv, err := ntp.NewServer(ntp.ServerConfig{Sample: func() ntp.ClockSample {
				return ntp.ClockSample{Time: ntp.Time64FromTime(time.Now()), Stratum: 0, RefID: ntp.RefIDFromString(code)}
			}})
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(pc)
			defer pc.Close()

			const maxPoll = time.Hour
			m, err := DialMultiLive(MultiLiveOptions{
				Servers: []string{pc.LocalAddr().String()},
				Poll:    10 * time.Millisecond,
				MaxPoll: maxPoll,
				Timeout: 2 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			for i := 0; i < 20; i++ {
				st, err := m.Step(0)
				var kiss *ntp.KissError
				if !errors.As(err, &kiss) || kiss.Code != code {
					t.Fatalf("step %d: %v, want a %s kiss", i, err, code)
				}
				// What Run does with a RATE kiss.
				if got := m.pollers[0].Observe(st.Status, err); code == "RATE" && got != maxPoll {
					t.Fatalf("step %d: poller recommends %v after a kiss, want %v", i, got, maxPoll)
				}
			}
			up := m.UpstreamStates()[0]
			if code == "RATE" {
				if up.Dials != 1 || !up.Connected || up.ConsecutiveFailures != 0 {
					t.Errorf("slot after 20 kisses = %+v, want the first socket, no failures counted", up)
				}
			} else {
				if up.Dials != 1 || up.Connected {
					t.Errorf("slot after a %s kiss = %+v, want its one socket closed", code, up)
				}
				if n := srv.Stats().Requests; n != 1 {
					t.Errorf("%s server saw %d requests after 20 steps, want 1", code, n)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
				defer cancel()
				if err := m.Run(ctx, nil); err != context.DeadlineExceeded {
					t.Errorf("Run returned %v, want it to wait for the context", err)
				}
				if n := srv.Stats().Requests; n != 1 {
					t.Errorf("%s server saw %d requests after a Run, want 1", code, n)
				}
			}
			if got := m.Ensemble().Exchanges(); got != 0 {
				t.Errorf("%d exchanges reached the ensemble", got)
			}
		})
	}
}

// TestMultiLiveCloseAggregates: Close closes every socket even when
// some fail, and reports the first error.
func TestMultiLiveCloseAggregates(t *testing.T) {
	errA, errB := errors.New("close A"), errors.New("close B")
	conns := []*trackedConn{{closeErr: errA}, {}, {closeErr: errB}}
	m, err := dialMultiLive(MultiLiveOptions{
		Servers: []string{"a:123", "b:123", "c:123"},
	}, dialTracked(conns))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Close(); got != errA {
		t.Errorf("Close = %v, want first error %v", got, errA)
	}
	for i, c := range conns {
		if c.closed != 1 {
			t.Errorf("conn %d closed %d times, want 1", i, c.closed)
		}
	}
}

// TestMultiLiveStepOutOfRange: both ends of the index range are
// rejected without touching any socket.
func TestMultiLiveStepOutOfRange(t *testing.T) {
	conns := []*trackedConn{{}, {}}
	m, err := dialMultiLive(MultiLiveOptions{
		Servers: []string{"a:123", "b:123"},
	}, dialTracked(conns))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Step(-1); err == nil {
		t.Error("negative server index accepted")
	}
	if _, err := m.Step(2); err == nil {
		t.Error("server index past the end accepted")
	}
}

// TestUpstreamCountsStampClamps: the clamp hits an exchange reports are
// summed into its slot — the slot's count survives the client's
// redials — and exposed per server as UpstreamState.StampClamped and
// tscclock_upstream_stamp_clamped_total.
func TestUpstreamCountsStampClamps(t *testing.T) {
	m, err := dialMultiLive(MultiLiveOptions{
		Servers: []string{"a:123", "b:123"},
	}, dialTracked([]*trackedConn{{}, {}}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.ups[0].noteStamps(ntp.RawExchange{KernelTa: true, TaDelta: 1e-5, Clamped: 1})
	m.ups[0].noteStamps(ntp.RawExchange{Clamped: 2})
	m.ups[1].noteStamps(ntp.RawExchange{KernelTa: true, KernelTf: true})
	ups := m.UpstreamStates()
	if ups[0].StampClamped != 3 || ups[0].StampMisses != 3 || ups[1].StampClamped != 0 {
		t.Errorf("StampClamped %d, %d and StampMisses %d; want 3, 0 and 3", ups[0].StampClamped, ups[1].StampClamped, ups[0].StampMisses)
	}
	body := scrape(t, NewRelayMetrics(RelayMetricsConfig{Multi: m}))
	for _, want := range []string{`tscclock_upstream_stamp_clamped_total{server="0"} 3`, `tscclock_upstream_stamp_clamped_total{server="1"} 0`} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("scrape lacks %q:\n%s", want, body)
		}
	}
}
