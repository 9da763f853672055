package tscclock

import (
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ntp"
)

// settleGoroutines waits for the runtime to drop back to at most base
// goroutines: teardown is asynchronous, so a leak check must retry
// before declaring the survivors leaked.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d running, base %d\n%s", n, base, buf[:m])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startSilentServer binds a UDP socket that never answers: an upstream
// in a total outage. Requests vanish; clients time out.
func startSilentServer(t *testing.T) net.Addr {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	return pc.LocalAddr()
}

// TestLiveRunCloseLeaksNothing: cancelling Run and closing a
// one-server client leaves no polling goroutine behind.
func TestLiveRunCloseLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	addr := startServer(t)
	l, err := DialMultiLive(MultiLiveOptions{Servers: []string{addr.String()}, Poll: 20 * time.Millisecond, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.Run(ctx, nil) }()
	time.Sleep(60 * time.Millisecond)
	cancel()
	<-done
	l.Close()
	settleGoroutines(t, base+1) // startServer's Serve goroutine persists until cleanup
}

// TestMultiLiveCloseDuringOutage: closing a MultiLive while every
// upstream is dark — pollers blocked mid-exchange on sockets that will
// never answer — must unblock the reads, stop the re-dial loops, and
// leave no goroutine behind. This is the shutdown path of a relay
// being restarted during a total upstream outage.
func TestMultiLiveCloseDuringOutage(t *testing.T) {
	base := runtime.NumGoroutine()
	servers := []string{
		startSilentServer(t).String(),
		startSilentServer(t).String(),
		startSilentServer(t).String(),
	}
	m, err := DialMultiLive(MultiLiveOptions{
		Servers: servers,
		Poll:    20 * time.Millisecond,
		Timeout: 30 * time.Second, // reads park until Close unblocks them
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Run(ctx, nil) }()
	// Let every poller get into (or past) a blocked exchange.
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := m.Close(); err != nil {
		t.Errorf("Close during outage: %v", err)
	}
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Run did not drain after cancel+Close during an outage")
	}
	settleGoroutines(t, base)
}

// TestRelayCloseLeaksNothing drives the full relay pipeline — upstream
// stratum-1 server, MultiLive ensemble, sharded downstream serving, a
// downstream client — then tears it all down and requires every
// goroutine gone.
func TestRelayCloseLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()

	up := startServer(t)
	m, err := DialMultiLive(MultiLiveOptions{
		Servers: []string{up.String(), up.String()},
		Poll:    20 * time.Millisecond,
		Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- m.Run(ctx, nil) }()

	srv, err := ntp.NewServer(ntp.ServerConfig{Sample: m.ServerSample(ntp.RefIDFromString("TSCC"))})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.ListenShards("udp", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- sh.Serve(ctx) }()

	conn, err := net.Dial("udp", sh.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	counter, _ := ntp.MonotonicCounter()
	cl := ntp.NewClient(conn, counter, 2*time.Second)
	if _, err := cl.Exchange(); err != nil {
		t.Fatalf("downstream exchange: %v", err)
	}
	conn.Close()

	cancel()
	m.Close()
	for _, ch := range []chan error{runDone, serveDone} {
		select {
		case <-ch:
		case <-time.After(3 * time.Second):
			t.Fatal("pipeline did not drain after cancellation")
		}
	}
	settleGoroutines(t, base+1) // startServer's Serve goroutine persists until cleanup
}

// TestStartupWithUnreachableServerStillSyncs pins the dial-tolerance
// acceptance criterion: one unreachable server at startup must not
// prevent the client from synchronizing off the reachable ones.
func TestStartupWithUnreachableServerStillSyncs(t *testing.T) {
	good := startServer(t)
	m, err := DialMultiLive(MultiLiveOptions{
		Servers: []string{good.String(), "unreachable.invalid:123"},
		Poll:    10 * time.Millisecond,
		Timeout: time.Second,
	})
	if err != nil {
		t.Fatalf("dial with one unreachable server: %v", err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	synced := make(chan struct{})
	var once sync.Once
	go m.Run(ctx, func(k int, st EnsembleStatus, err error) {
		if err == nil && m.Ensemble().Readout().Synced() {
			once.Do(func() { close(synced) })
		}
	})
	select {
	case <-synced:
	case <-ctx.Done():
		t.Fatal("never synchronized with one upstream unreachable")
	}
	if d := m.Now().Sub(time.Now()); d > 50*time.Millisecond || d < -50*time.Millisecond {
		t.Errorf("Now() differs from OS clock by %v", d)
	}
	ups := m.UpstreamStates()
	if ups[1].Connected || ups[1].DialFailures == 0 {
		t.Errorf("unreachable slot = %+v, want disconnected with dial failures", ups[1])
	}
}
