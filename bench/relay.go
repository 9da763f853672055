package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	tscclock "repro"
	"repro/internal/ntp"
	"repro/internal/ratelimit"
)

// relayPoll is the upstream polling floor: fast enough that warm-up
// ends in about a second on loopback, slow enough that the sync side
// stays a rounding error (tens of Process calls per second) beside the
// serving load.
const relayPoll = 25 * time.Millisecond

// servingRcvbuf is the receive buffer asked for on the serving socket:
// a second of requests at the highest offered rate, at about 1 KiB of
// kernel memory per queued datagram.
const servingRcvbuf = 64 << 20

// relayUpstreams is the number of loopback stratum-1 servers the relay
// synchronizes to: the smallest ensemble with a meaningful majority.
const relayUpstreams = 3

// relay is the system under test of the serving workloads: the
// stratum-2 relay composed in-process the way cmd/ntpserver -upstream
// composes it (MultiLive → ServerSample → NewServer{Sample, Limit},
// Batch 32, TxStamp off), with loopback stratum-1 servers as its
// upstreams.
type relay struct {
	ml    *tscclock.MultiLive
	lim   *ratelimit.Limiter
	srv   *ntp.Server
	pc    *net.UDPConn // the serving socket
	addr  string
	ready time.Duration // boot → MultiLive.Ready()

	cancel   context.CancelFunc // ends the upstream stubs' Shards.Serve
	cancelML context.CancelFunc // ends MultiLive.Run
	mlDone   chan struct{}
	done     []chan error // one per serving goroutine
}

// serveShards runs sh.Serve on its own goroutine and records its exit.
func (r *relay) serveShards(ctx context.Context, sh *ntp.Shards) {
	ch := make(chan error, 1)
	r.done = append(r.done, ch)
	go func() { ch <- sh.Serve(ctx) }()
}

// bootRelay starts the upstream servers, the synchronizer and the
// serving shard, and returns once the combined clock meets the serving
// bar. The caller must call stop.
func bootRelay() (*relay, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	r := &relay{cancel: cancel}
	fail := func(err error) (*relay, error) {
		r.stop()
		return nil, err
	}

	var addrs []string
	for i := 0; i < relayUpstreams; i++ {
		up, err := ntp.NewServer(ntp.ServerConfig{Clock: ntp.SystemServerClock()})
		if err != nil {
			return fail(err)
		}
		sh, err := up.ListenShards("udp", "127.0.0.1:0", 1)
		if err != nil {
			return fail(err)
		}
		r.serveShards(ctx, sh)
		addrs = append(addrs, sh.Addr().String())
	}

	ml, err := tscclock.DialMultiLive(tscclock.MultiLiveOptions{Servers: addrs, Poll: relayPoll})
	if err != nil {
		return fail(err)
	}
	r.ml = ml
	mlCtx, cancelML := context.WithCancel(ctx)
	r.cancelML, r.mlDone = cancelML, make(chan struct{})
	go func() {
		// Exchange failures are tolerated, as in cmd/ntpserver; Run
		// returns the context's error at shutdown.
		_ = ml.Run(mlCtx, nil)
		close(r.mlDone)
	}()

	// The limiter is attached, as an operator would attach it, with a
	// budget no honest flow reaches: its cost is on the packet path,
	// its denials are not.
	r.lim = ratelimit.New(ratelimit.Config{Rate: 1e9, Burst: 2e9})
	r.srv, err = ntp.NewServer(ntp.ServerConfig{
		Sample: ml.ServerSample(ntp.RefIDFromString("TSCC")),
		Limit:  r.lim,
	})
	if err != nil {
		return fail(err)
	}
	// One serving socket, one Serve loop: what ListenShards(…, 1) runs,
	// minus the restart supervisor, because the socket has to be ours to
	// size. The default receive buffer holds ~7 ms of requests at
	// 40 000/s; this shared box takes a vCPU away for 4 ms several times
	// a second and for a third of a second now and then. With room for
	// a second of requests such a freeze shows as tail latency, which is
	// what it is, instead of as loss.
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return fail(err)
	}
	r.pc = pc
	growReceiveBuffer(pc, servingRcvbuf)
	r.addr = pc.LocalAddr().String()
	ch := make(chan error, 1)
	r.done = append(r.done, ch)
	go func() {
		err := r.srv.Serve(pc)
		if errors.Is(err, net.ErrClosed) {
			err = nil
		}
		ch <- err
	}()

	deadline := start.Add(30 * time.Second)
	for !ml.Ready() {
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("relay not ready after 30 s (%d exchanges)", ml.Ensemble().Exchanges()))
		}
		time.Sleep(time.Millisecond)
	}
	r.ready = time.Since(start)
	return r, nil
}

// stop shuts the relay down and waits for every goroutine it started.
// The pollers go first, while their upstreams still answer: an
// exchange cut off mid-flight would sit out its 4 s timeout.
func (r *relay) stop() {
	if r.ml != nil {
		r.cancelML()
		<-r.mlDone
		r.ml.Close()
	}
	r.cancel() // Shards.Serve closes the upstream stubs' sockets when the context ends
	if r.pc != nil {
		r.pc.Close()
	}
	for _, ch := range r.done {
		<-ch
	}
}
