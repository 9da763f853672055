package tscclock

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/ntp"
)

// startServer runs a local stratum-1 NTP server for live tests.
func startServer(t *testing.T) net.Addr {
	t.Helper()
	addr, _ := startCountingServer(t)
	return addr
}

// startCountingServer is startServer that also returns the server, whose
// Stats count the requests it answered.
func startCountingServer(t *testing.T) (net.Addr, *ntp.Server) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ntp.NewServer(ntp.ServerConfig{Clock: ntp.SystemServerClock()})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(pc)
	t.Cleanup(func() { pc.Close() })
	return pc.LocalAddr(), srv
}

func TestLiveStep(t *testing.T) {
	addr := startServer(t)
	l, err := DialMultiLive(MultiLiveOptions{Servers: []string{addr.String()}, Poll: 50 * time.Millisecond,
		Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	for i := 0; i < 5; i++ {
		st, err := l.Step(0)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if st.RTT <= 0 || st.RTT > 1 {
			t.Errorf("loopback RTT %v implausible", st.RTT)
		}
	}
	if got := l.Ensemble().Exchanges(); got != 5 {
		t.Errorf("exchanges = %d", got)
	}
	// Against the OS-clock server on loopback the absolute clock must
	// land within milliseconds of the OS clock immediately.
	if d := l.Now().Sub(time.Now()); d > 50*time.Millisecond || d < -50*time.Millisecond {
		t.Errorf("Now() differs from OS clock by %v", d)
	}
	if a, b := l.Counter(), l.Counter(); b < a {
		t.Error("raw counter not monotone")
	}
}

func TestLiveRunCancel(t *testing.T) {
	addr := startServer(t)
	// MaxPoll == Poll is a fixed cadence after warmup: no adaptive backoff.
	l, err := DialMultiLive(MultiLiveOptions{Servers: []string{addr.String()},
		Poll: 20 * time.Millisecond, MaxPoll: 20 * time.Millisecond, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	steps := 0
	err = l.Run(ctx, func(_ int, st EnsembleStatus, err error) {
		if err == nil {
			steps++
		}
	})
	if err != context.DeadlineExceeded {
		t.Errorf("Run returned %v", err)
	}
	if steps < 2 {
		t.Errorf("only %d successful steps before cancel", steps)
	}
}

func TestLiveStepAgainstDeadServer(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	pc.Close()
	l, err := DialMultiLive(MultiLiveOptions{Servers: []string{addr}, Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Step(0); err == nil {
		t.Error("step against dead server succeeded")
	}
	// Nothing must have been fed to the clock.
	if got := l.Ensemble().Exchanges(); got != 0 {
		t.Errorf("exchanges = %d after failed step", got)
	}
}
