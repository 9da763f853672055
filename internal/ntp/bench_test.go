package ntp

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/ratelimit"
)

// BenchmarkServeLoopback measures downstream serving throughput over
// real loopback UDP: N shard listeners on one address (SO_REUSEPORT on
// Linux), hammered by concurrent clients that keep a bounded window of
// requests in flight (batched ping-pong: the window stays far below
// the socket buffers, so loopback UDP does not drop). b.N counts
// replies; ns/op is the per-reply budget at that shard count. It is
// CI's serving smoke, not a ledger: bench/ (relay-open, relay-sat) owns
// every serving number.
// The io dimension selects the packet I/O under the one serving loop:
// io=portable hides the sockets' type so Serve gives them the portable
// one-ReadFrom-one-WriteTo I/O (two syscalls per reply), io=mmsg leaves
// them as the UDP sockets they are, which on Linux means recvmmsg and
// sendmmsg. The reported sys/reply metric is the measured
// (RecvCalls+SendCalls)/Replied from the server's own counters — on a
// single-core runner the closed-loop clients rarely build real queue
// depth, so replies/s understates the batching win while sys/reply
// still shows how much of the load arrived batched.
func BenchmarkServeLoopback(b *testing.B) {
	for _, dim := range []struct {
		shards   int
		portable bool
		txstamp  bool
	}{
		{1, true, false}, {1, false, false}, {2, false, false}, {4, false, false}, {1, false, true},
	} {
		name := fmt.Sprintf("shards=%d/io=mmsg", dim.shards)
		if dim.portable {
			name = fmt.Sprintf("shards=%d/io=portable", dim.shards)
		}
		if dim.txstamp {
			name += "/txstamp"
		}
		b.Run(name, func(b *testing.B) {
			benchServeLoopback(b, ServerConfig{Clock: SystemServerClock(), TxStamp: dim.txstamp}, dim.shards, dim.portable)
		})
	}
}

// BenchmarkServeLoopbackLimited is BenchmarkServeLoopback with the
// per-prefix rate limiter attached — the only per-packet cost the
// observability layer adds (metric counters are bare atomics and the
// exposition work all happens at scrape time). The delta against the
// bare benchmark at the same shard count is the instrumentation tax;
// the budget is generous enough (Rate 1e9) that no benchmark packet is
// ever denied, so both benchmarks count the same work per reply.
func BenchmarkServeLoopbackLimited(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			limit := ratelimit.New(ratelimit.Config{Rate: 1e9, Burst: 1e9})
			benchServeLoopback(b, ServerConfig{Clock: SystemServerClock(), Limit: limit}, shards, false)
		})
	}
}

func benchServeLoopback(b *testing.B, cfg ServerConfig, shards int, portable bool) {
	srv, err := NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sh, err := srv.ListenShards("udp", "127.0.0.1:0", shards)
	if err != nil {
		b.Fatal(err)
	}
	if portable {
		sh.serveFn = func(pc net.PacketConn) error { return srv.Serve(struct{ net.PacketConn }{pc}) }
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- sh.Serve(ctx) }()
	defer func() {
		cancel()
		<-served
	}()

	// One flow per client socket: the kernel hashes flows across
	// the reuseport set, so distinct sockets land on distinct
	// shards. The in-flight window is sized against the socket
	// buffer's per-packet truesize accounting (~1 KB per tiny
	// datagram), and rare overflow drops are resent rather than
	// failed — this is a throughput benchmark, not a loss test.
	const clients = 8
	const window = 16
	req := Packet{Version: 4, Mode: ModeClient, Transmit: Time64FromTime(time.Now())}
	wire := req.Marshal()
	per := b.N / clients
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		n := per
		if c == 0 {
			n += b.N % clients
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			conn, err := net.Dial("udp", sh.Addr().String())
			if err != nil {
				b.Error(err)
				return
			}
			defer conn.Close()
			var rbuf [512]byte
			retries := 0
			for done := 0; done < n; {
				batch := window
				if n-done < batch {
					batch = n - done
				}
				for i := 0; i < batch; i++ {
					if _, err := conn.Write(wire[:]); err != nil {
						b.Error(err)
						return
					}
				}
				for got := 0; got < batch; {
					conn.SetReadDeadline(time.Now().Add(time.Second))
					if _, err := conn.Read(rbuf[:]); err != nil {
						// Dropped under buffer pressure: resend
						// the outstanding remainder of the batch.
						retries++
						if retries > 100 {
							b.Errorf("server unresponsive after %d retries (%d/%d replies)", retries, done+got, n)
							return
						}
						for i := got; i < batch; i++ {
							if _, err := conn.Write(wire[:]); err != nil {
								b.Error(err)
								return
							}
						}
						continue
					}
					got++
				}
				done += batch
			}
		}(n)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "replies/s")
	if st := srv.Stats(); st.Replied > 0 {
		b.ReportMetric(float64(st.RecvCalls+st.SendCalls)/float64(st.Replied), "sys/reply")
		if rx := st.KernelRx + st.KernelRxMissing; rx > 0 {
			b.ReportMetric(float64(st.KernelRx)/float64(rx), "rxcov")
		}
		if cfg.TxStamp {
			// Coverage against all replies: an error-queue stamp the
			// ring failed to correlate counts against coverage just
			// like one the kernel never looped.
			b.ReportMetric(float64(st.KernelTx)/float64(st.Replied), "txcov")
		}
	}
}
