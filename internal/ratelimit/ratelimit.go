// Package ratelimit is the serving path's abuse shield: per-client-
// prefix token buckets sized so one hostile subnet exhausts its own
// budget instead of a shard. Keying by prefix (/24 for IPv4, /48 for
// IPv6 — the standard allocation units) rather than by address closes
// the obvious dodge of rotating source addresses within a subnet, and
// an attacker spreading across MANY prefixes has to spread its packet
// rate too, which is the point of a per-prefix budget.
//
// The design serves the shard hot loop: a lookup is one hash-sharded
// mutex, one map probe on an integer key derived from the address bytes
// (no parsing, no per-packet allocation), and a float refill. The
// bucket table is bounded: when a shard fills, idle buckets (no packet
// for IdleTTL) are swept out, and if a churn attack keeps the table
// full anyway, NEW prefixes are admitted untracked (fail open) — a
// table-exhaustion attack must not become a tool to deny honest
// clients, it merely degrades enforcement back to pre-limiter
// behaviour while the ratelimit_untracked_total counter makes the
// condition visible.
package ratelimit

import (
	"net"
	"sync"
	"time"

	"repro/internal/cacheline"
	"repro/internal/metrics"
)

// Config tunes a Limiter.
type Config struct {
	// Rate is the sustained budget in requests per second per client
	// prefix. Default: 64 (far above any sane NTP client — even burst
	// polling is a few per minute — while three orders of magnitude
	// below what a flood needs).
	Rate float64
	// Burst is the bucket capacity: how many back-to-back requests a
	// prefix may issue from cold before pacing applies. Default: 128.
	Burst float64
	// MaxEntries bounds the total tracked prefixes across all table
	// shards. Default: 65536 (a few MB at the bucket size).
	MaxEntries int
	// IdleTTL is how long a prefix's bucket survives without traffic
	// before it is evictable. Default: 60s.
	IdleTTL time.Duration
	// Now, when non-nil, replaces the limiter's time source: a
	// monotonic clock in nanoseconds, read once per Allow. The default
	// reads the runtime's monotonic clock. Injecting a virtual clock
	// makes refill behaviour fully deterministic in tests and lets the
	// simulator drive a limiter on simulated time.
	Now func() int64
}

func (c *Config) setDefaults() {
	if c.Rate == 0 {
		c.Rate = 64
	}
	if c.Burst == 0 {
		c.Burst = 128
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = 65536
	}
	if c.IdleTTL == 0 {
		c.IdleTTL = 60 * time.Second
	}
}

// tableShards is the lock-sharding factor of the bucket table: enough
// that the SO_REUSEPORT serve shards (one per core, single digits)
// rarely contend on a table shard even under uniform traffic.
const tableShards = 16

// bucket is one prefix's token state; guarded by its table shard's
// mutex.
type bucket struct {
	tokens float64
	last   int64 // monotonic nanoseconds of the last refill
}

// tableShard is one lock and the buckets it guards. The sixteen hot
// bytes are followed by a line of padding: unpadded, four shards shared
// each cache line, and serving shards taking *different* locks still
// passed one line back and forth — BenchmarkAllowParallel at -cpu 2 ran
// five times slower per call than at -cpu 1 (PERF.md "PR 14").
type tableShard struct {
	mu sync.Mutex
	m  map[uint64]bucket
	_  cacheline.Pad
}

// Limiter is a sharded per-prefix token-bucket limiter. Safe for
// concurrent use from every serve shard.
type Limiter struct {
	cfg       Config
	ratePerNs float64
	maxShard  int // per-table-shard entry bound
	shards    [tableShards]tableShard

	// now is the time source in monotonic nanoseconds; Config.Now or
	// the runtime monotonic clock.
	now func() int64

	denied    metrics.Counter
	untracked metrics.Counter
}

// New constructs a limiter; zero config fields take defaults.
func New(cfg Config) *Limiter {
	cfg.setDefaults()
	now := cfg.Now
	if now == nil {
		start := time.Now()
		now = func() int64 { return int64(time.Since(start)) }
	}
	l := &Limiter{
		cfg:       cfg,
		ratePerNs: cfg.Rate / 1e9,
		maxShard:  (cfg.MaxEntries + tableShards - 1) / tableShards,
		now:       now,
	}
	for i := range l.shards {
		l.shards[i].m = make(map[uint64]bucket)
	}
	return l
}

// v4PrefixBits and v6PrefixBits are the client-aggregation prefix
// lengths: /24 and /48, the common end-site allocation units.
const (
	v4PrefixBits = 24
	v6PrefixBits = 48
)

// PrefixKey reduces an IP to its rate-limiting prefix as an integer
// key: the top v4PrefixBits of an IPv4 address (tagged to its own key
// space) or the top v6PrefixBits of an IPv6 address. ok is false for
// addresses with no usable IP (the caller should fail open: a packet
// whose source the stack could not type is not evidence of abuse).
//
//repro:hotpath
func PrefixKey(ip net.IP) (key uint64, ok bool) {
	if v4 := ip.To4(); v4 != nil {
		return PrefixKey4([4]byte(v4)), true
	}
	if len(ip) != net.IPv6len {
		return 0, false
	}
	return PrefixKey16((*[16]byte)(ip)), true
}

// PrefixKey4 is PrefixKey for a raw IPv4 address already in hand as 4
// bytes (e.g. a RawSockaddrInet4.Addr from a batched receive): the /24
// prefix tagged into the IPv4 key space, with no net.IP boxing and no
// failure mode.
//
//repro:hotpath
func PrefixKey4(a [4]byte) uint64 {
	return 1<<63 | uint64(a[0])<<16 | uint64(a[1])<<8 | uint64(a[2])
}

// PrefixKey16 is PrefixKey for a raw 16-byte address (e.g. a
// RawSockaddrInet6.Addr): IPv4-mapped addresses (::ffff:a.b.c.d, which
// is how an AF_INET6 socket presents IPv4 traffic) key into the IPv4
// space so a client is budgeted identically over either socket family;
// everything else keys by its /48.
//
//repro:hotpath
func PrefixKey16(a *[16]byte) uint64 {
	if a[0] == 0 && a[1] == 0 && a[2] == 0 && a[3] == 0 &&
		a[4] == 0 && a[5] == 0 && a[6] == 0 && a[7] == 0 &&
		a[8] == 0 && a[9] == 0 && a[10] == 0xff && a[11] == 0xff {
		return PrefixKey4([4]byte{a[12], a[13], a[14], a[15]})
	}
	return uint64(a[0])<<40 | uint64(a[1])<<32 | uint64(a[2])<<24 |
		uint64(a[3])<<16 | uint64(a[4])<<8 | uint64(a[5])
}

// AddrKey is PrefixKey for a packet source as a net.PacketConn reports
// it. ok is false for non-UDP or unparseable sources, which the caller
// should admit without asking Allow (fail open).
//
//repro:hotpath
func AddrKey(addr net.Addr) (key uint64, ok bool) {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return 0, false
	}
	return PrefixKey(ua.IP)
}

// shard returns the table shard a key lives in. Fibonacci mixing spreads
// sequential prefixes across the shards.
func (l *Limiter) shard(key uint64) *tableShard {
	return &l.shards[(key*0x9e3779b97f4a7c15)>>59&(tableShards-1)]
}

// Allow spends one token from the key's bucket, reporting whether the
// request is within budget. New prefixes start at Burst capacity; when
// the table is full and idle-sweeping frees nothing, new prefixes are
// admitted untracked.
//
//repro:hotpath
func (l *Limiter) Allow(key uint64) bool {
	sh := l.shard(key)
	now := l.now()
	sh.mu.Lock()
	b, ok := sh.m[key]
	if !ok {
		if len(sh.m) >= l.maxShard {
			l.sweepLocked(sh, now)
		}
		if len(sh.m) >= l.maxShard {
			sh.mu.Unlock()
			l.untracked.Inc()
			return true
		}
		sh.m[key] = bucket{tokens: l.cfg.Burst - 1, last: now}
		sh.mu.Unlock()
		return true
	}
	b.tokens += float64(now-b.last) * l.ratePerNs
	if b.tokens > l.cfg.Burst {
		b.tokens = l.cfg.Burst
	}
	b.last = now
	allowed := b.tokens >= 1
	if allowed {
		b.tokens--
	}
	sh.m[key] = b
	sh.mu.Unlock()
	if !allowed {
		l.denied.Inc()
	}
	return allowed
}

// sweepLocked evicts buckets idle past IdleTTL from one table shard.
// Called with the shard lock held, only on the insert-into-full-shard
// path, so steady-state packets never pay for a sweep.
func (l *Limiter) sweepLocked(sh *tableShard, now int64) {
	ttl := l.cfg.IdleTTL.Nanoseconds()
	for k, b := range sh.m {
		if now-b.last > ttl {
			delete(sh.m, k)
		}
	}
}

// Len returns the number of tracked prefixes across all table shards.
func (l *Limiter) Len() int {
	n := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Denied returns the total requests rejected over budget.
func (l *Limiter) Denied() uint64 { return l.denied.Value() }

// RegisterMetrics renders the limiter's table occupancy and its
// fail-open counter cell (denials are counted, and rendered, by the
// server that dropped the packet).
func (l *Limiter) RegisterMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("ratelimit_tracked_prefixes", "Client prefixes with a live token bucket.", func() float64 {
		return float64(l.Len())
	})
	reg.RegisterCounter("ratelimit_untracked_total", "Requests admitted without tracking because the bucket table was full (fail open).", &l.untracked)
}
