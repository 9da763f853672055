// Package rng implements the deterministic random number generation used
// by the simulation substrate. Everything in the reproduction must be
// bit-for-bit reproducible from a seed, so the package provides its own
// xoshiro256** generator (seeded via SplitMix64) rather than relying on
// math/rand's unspecified-across-versions sources, together with the
// distributions needed by the oscillator and network models: uniform,
// normal, exponential, Pareto and log-normal.
//
//repro:deterministic
package rng

import (
	"math"
	"unsafe"

	"repro/internal/cacheline"
)

// Source is a deterministic xoshiro256** pseudo-random generator.
// The zero value is not usable; construct with New.
//
// A Source fills one cache line: the trace generator draws from some
// sources on one goroutine and from others on its stamping workers, and
// sources allocated back to back would otherwise share lines, each
// draw taking the line away from the other core.
type Source struct {
	s [4]uint64

	// Box-Muller spare variate cache for StdNormal.
	spare     float64
	haveSpare bool

	_ [cacheline.Size - 41]byte
}

// A Source is exactly one line, so the allocator's 64-byte size class
// puts each on a line of its own.
const (
	_ = uint(unsafe.Sizeof(Source{}) - cacheline.Size)
	_ = uint(cacheline.Size - unsafe.Sizeof(Source{}))
)

// New returns a Source seeded deterministically from seed using
// SplitMix64, the initialization recommended by the xoshiro authors.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	// A zero state would be absorbing; SplitMix64 cannot produce four
	// zeros from any seed, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	return &src
}

// Clone returns an exact copy of the generator state: the clone and the
// original produce identical draw sequences from this point on. The
// trace stream clones its one jitter stream per server and
// fast-forwards each clone (SkipFloat64) to that server's stretch of
// it, so a lazily merged schedule reads every server's draws in
// constant memory without disturbing the others.
func (r *Source) Clone() *Source {
	cp := *r
	return &cp
}

// SkipFloat64 advances the generator by n Float64 draws, discarding the
// values. Equivalent to calling Float64 n times.
func (r *Source) SkipFloat64(n int) {
	for i := 0; i < n; i++ {
		r.Float64()
	}
}

// Split derives an independent child generator from the current state.
// It consumes two outputs of the parent, so subsequent parent draws and
// child draws are decorrelated streams. Use it to give each model
// component (oscillator, forward path, backward path, server, ...) its own
// stream so that changing one component's consumption pattern does not
// perturb the others.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ (r.Uint64() << 1) ^ 0xa5a5a5a5a5a5a5a5)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
// The outer conversion rounds the scaling (a product by 2⁻⁵³ once
// compiled), so a caller it is inlined into cannot fuse it into a sum.
func (r *Source) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Float64Open returns a uniform value in (0, 1), never exactly zero,
// suitable for use inside logarithms.
func (r *Source) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	tLo := t & mask
	tHi := t >> 32
	t = aLo*bHi + tLo
	lo |= (t & mask) << 32
	hi = aHi*bHi + tHi + t>>32
	return hi, lo
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}

// Normal returns a draw from the normal distribution with the given mean
// and standard deviation, generated with the Box-Muller transform. The
// spare variate is cached.
func (r *Source) Normal(mean, stddev float64) float64 {
	return mean + float64(stddev*r.StdNormal())
}

// StdNormal returns a standard normal draw.
func (r *Source) StdNormal() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	u1 := r.Float64Open()
	u2 := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u1))
	// One reduction for both: for 2π·u2 ≥ 0 Sincos is Sin and Cos bit
	// for bit.
	sin, cos := math.Sincos(2 * math.Pi * u2)
	r.spare = mag * sin
	r.haveSpare = true
	return mag * cos
}

// Exponential returns an exponential draw with the given mean (not rate).
func (r *Source) Exponential(mean float64) float64 {
	return -mean * math.Log(r.Float64Open())
}

// Pareto returns a draw from the Pareto (type I) distribution with the
// given scale x_m > 0 and shape alpha > 0. Values are >= scale; small
// alpha produces the heavy tails characteristic of congestion episodes.
func (r *Source) Pareto(scale, alpha float64) float64 {
	return scale / math.Pow(r.Float64Open(), 1/alpha)
}

// LogNormal returns a draw whose logarithm is normal with parameters mu
// and sigma.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// TruncNormalPos returns a normal draw truncated to be >= 0 by rejection;
// it falls back to the absolute value after a bounded number of attempts
// so the call always terminates even for deeply negative means.
func (r *Source) TruncNormalPos(mean, stddev float64) float64 {
	for i := 0; i < 16; i++ {
		v := r.Normal(mean, stddev)
		if v >= 0 {
			return v
		}
	}
	return math.Abs(r.Normal(mean, stddev))
}
