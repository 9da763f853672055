package ntp

// Sharded serving: fan one UDP listen address out across N reader
// goroutines so reply stamping scales across cores. On Linux the
// shards are N independent SO_REUSEPORT sockets — the kernel hashes
// each client flow to one socket, so shards share nothing, not even a
// socket lock. Elsewhere the shards are N readers draining a single
// shared socket (net.PacketConn is safe for concurrent use); the
// kernel socket becomes the serialization point, but stamping and
// marshalling still parallelize.
//
// The serving clock must be lock-free for this to pay off: with the
// published-readout read path every shard stamps from an atomic
// pointer load, so adding shards adds throughput instead of contention
// (see BenchmarkServeLoopback and PERF.md).
//
// Shards are supervised: a shard whose serving loop dies with a
// genuine error (a socket-level failure, not the cancellation-induced
// close) is restarted under exponential backoff — on Linux with a
// freshly bound SO_REUSEPORT socket, since the dead fd is what failed.
// A shard that keeps dying without ever serving a healthy stint is a
// poison pill (a config or environment problem restarts cannot fix):
// after restartMax consecutive failures the shard gives up, and Serve
// closes the remaining shards and reports the error rather than limp
// along on a partial shard set.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
)

// ShardStats is the supervision view of one shard's serving loop.
type ShardStats struct {
	// Restarts counts serving-loop failures so far (each one is
	// followed by a backoff and restart, until the poison-pill cap).
	Restarts uint64
	// LastError is the most recent serving-loop failure, nil if the
	// shard has never failed.
	LastError error
}

// Shards is a set of sockets answering NTP on one address through one
// Server (shared clock, shared counters). Create with ListenShards,
// run with Serve, stop by cancelling the context (or Close).
type Shards struct {
	srv       *Server
	reuseport bool

	// Rebinding address for restarted reuseport shards; empty when the
	// shards were not created by ListenShards (tests), which disables
	// rebinding.
	network  string
	concrete string

	mu     sync.Mutex
	pcs    []net.PacketConn
	closed bool
	stats  []ShardStats // per-shard breakdown of restarts, with the errors

	// restarts counts serving-loop failures across all shards: the cell
	// the ntp_shard_restarts_total metric renders.
	restarts metrics.Counter

	// Supervision tuning; zero values take the defaults at Serve time.
	backoffMin time.Duration // first restart delay (default 10 ms)
	backoffMax time.Duration // backoff cap (default 1 s)
	goodStint  time.Duration // serving this long resets the failure run (default 1 s)
	restartMax int           // consecutive failures before giving up (default 8)

	// Test hooks: serveFn replaces srv.Serve, rebindFn replaces the
	// listen call for restarted shards.
	serveFn  func(net.PacketConn) error
	rebindFn func() (net.PacketConn, error)
}

// ListenShards binds n serving sockets for address on network
// ("udp", "udp4", "udp6"). On Linux the n sockets share the port via
// SO_REUSEPORT; elsewhere one socket is bound and shared by n reader
// goroutines. n < 1 is treated as 1.
func (s *Server) ListenShards(network, address string, n int) (*Shards, error) {
	if n < 1 {
		n = 1
	}
	sh := &Shards{srv: s, reuseport: reusePortAvailable, network: network}

	first, err := listenReusable(network, address)
	if err != nil {
		return nil, fmt.Errorf("ntp: listen %s: %w", address, err)
	}
	sh.pcs = append(sh.pcs, first)
	// The concrete address the first socket got (resolves the ":0"
	// ephemeral-port case) — used for the remaining shards and for
	// rebinding restarted ones.
	sh.concrete = first.LocalAddr().String()

	if !reusePortAvailable {
		// Single shared socket: Serve goroutines drain it together.
		for i := 1; i < n; i++ {
			sh.pcs = append(sh.pcs, first)
		}
		return sh, nil
	}
	for i := 1; i < n; i++ {
		pc, err := listenReusable(network, sh.concrete)
		if err != nil {
			sh.Close()
			return nil, fmt.Errorf("ntp: listen shard %d on %s: %w", i, sh.concrete, err)
		}
		sh.pcs = append(sh.pcs, pc)
	}
	return sh, nil
}

// Addr returns the bound address (useful with ":0").
func (sh *Shards) Addr() net.Addr {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, pc := range sh.pcs {
		if pc != nil {
			return pc.LocalAddr()
		}
	}
	return nil
}

// Size returns the number of shard serving loops.
func (sh *Shards) Size() int { return len(sh.pcs) }

// ReusePort reports whether the shards hold independent SO_REUSEPORT
// sockets (true on Linux) or share one socket.
func (sh *Shards) ReusePort() bool { return sh.reuseport }

// Stats returns a snapshot of per-shard supervision counters, in shard
// order.
func (sh *Shards) Stats() []ShardStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]ShardStats, len(sh.pcs))
	copy(out, sh.stats)
	return out
}

// RegisterMetrics renders the supervisor's restart cell and the shard
// count in reg.
func (sh *Shards) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("ntp_shard_restarts_total", "Serving-loop failures recovered by the shard supervisor.", &sh.restarts)
	reg.GaugeFunc("ntp_shards", "Serving shards on the listen address.", func() float64 {
		return float64(sh.Size())
	})
}

func (sh *Shards) defaults() {
	if sh.backoffMin <= 0 {
		sh.backoffMin = 10 * time.Millisecond
	}
	if sh.backoffMax <= 0 {
		sh.backoffMax = time.Second
	}
	if sh.goodStint <= 0 {
		sh.goodStint = time.Second
	}
	if sh.restartMax == 0 {
		sh.restartMax = 8
	}
}

func (sh *Shards) serve(pc net.PacketConn) error {
	if sh.serveFn != nil {
		return sh.serveFn(pc)
	}
	return sh.srv.Serve(pc)
}

func (sh *Shards) isClosed() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.closed
}

func (sh *Shards) conn(i int) net.PacketConn {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.pcs[i]
}

// condemn forgets shard i's socket (already closed by the caller) so
// the next supervision round rebinds a fresh one.
func (sh *Shards) condemn(i int, pc net.PacketConn) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.pcs[i] == pc {
		sh.pcs[i] = nil
	}
}

func (sh *Shards) recordFailure(i int, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stats == nil {
		sh.stats = make([]ShardStats, len(sh.pcs))
	}
	sh.stats[i].Restarts++
	sh.stats[i].LastError = err
	sh.restarts.Inc()
}

// rebindShard binds a replacement socket for a condemned reuseport
// shard, re-listening on the concrete address the shard set bound.
func (sh *Shards) rebindShard(i int) (net.PacketConn, error) {
	var pc net.PacketConn
	var err error
	switch {
	case sh.rebindFn != nil:
		pc, err = sh.rebindFn()
	case sh.network != "":
		pc, err = listenReusable(sh.network, sh.concrete)
	default:
		err = errors.New("no listen address to rebind")
	}
	if err != nil {
		return nil, fmt.Errorf("ntp: rebind shard %d: %w", i, err)
	}
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		pc.Close()
		return nil, net.ErrClosed
	}
	sh.pcs[i] = pc
	sh.mu.Unlock()
	return pc, nil
}

// runShard supervises one shard: serve, and on a genuine failure
// restart under exponential backoff — with a freshly bound socket when
// the shards are independent SO_REUSEPORT sockets (the failed fd is
// the suspect), on the shared socket otherwise. A healthy stint resets
// the failure run; restartMax consecutive failures mean the problem is
// not transient, and the shard returns the final error (the poison
// pill that makes Serve shut the whole set down).
func (sh *Shards) runShard(ctx context.Context, i int) error {
	backoff := sh.backoffMin
	consec := 0
	for {
		pc := sh.conn(i)
		var err error
		if pc == nil {
			pc, err = sh.rebindShard(i)
		}
		if err == nil {
			start := time.Now()
			err = sh.serve(pc)
			if err == nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			if time.Since(start) >= sh.goodStint {
				consec, backoff = 0, sh.backoffMin
			}
		}
		if sh.isClosed() || ctx.Err() != nil {
			return nil
		}
		sh.recordFailure(i, err)
		consec++
		if consec > sh.restartMax {
			return fmt.Errorf("ntp: shard %d gave up after %d consecutive failures: %w", i, consec, err)
		}
		if pc != nil && sh.reuseport {
			pc.Close()
			sh.condemn(i, pc)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > sh.backoffMax {
			backoff = sh.backoffMax
		}
	}
}

// Serve runs one supervised serving loop per shard and blocks until
// the context is cancelled or a shard gives up. On cancellation the
// sockets are closed, every shard drains, and the return value is nil.
// Transient shard failures are restarted in place (see runShard and
// Stats); a shard that exhausts its restart budget poisons the set —
// the remaining shards are closed and Serve reports the error instead
// of silently serving on a partial shard set.
func (sh *Shards) Serve(ctx context.Context) error {
	sh.defaults()
	errc := make(chan error, len(sh.pcs))
	for i := range sh.pcs {
		go func(i int) { errc <- sh.runShard(ctx, i) }(i)
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			sh.Close()
		case <-done:
		}
	}()
	var first error
	for range sh.pcs {
		if err := <-errc; err != nil && !errors.Is(err, net.ErrClosed) && first == nil {
			first = err
			sh.Close()
		}
	}
	return first
}

// Close closes every shard socket and stops future restarts. Safe to
// call more than once and concurrently with Serve (which then drains
// and returns).
func (sh *Shards) Close() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.closed = true
	var first error
	for i, pc := range sh.pcs {
		if !sh.reuseport && i > 0 {
			break // one shared socket, close once
		}
		if pc == nil {
			continue // condemned mid-restart; nothing bound
		}
		if err := pc.Close(); err != nil && !errors.Is(err, net.ErrClosed) && first == nil {
			first = err
		}
	}
	return first
}
