// Package falseshare is the falseshare analyzer fixture: words other
// cores poll, and the layouts around them the analyzer must reject — or
// leave alone.
package falseshare

import (
	"sync"
	"sync/atomic"
)

// Padded is the sanctioned form: a line of blank space on both sides of
// the polled word, whatever comes after.
type Padded struct {
	_ [64]byte
	//repro:polled
	p atomic.Pointer[int]
	_ [64]byte

	mu   sync.Mutex
	slab []int
}

// Bare is the layout the analyzer exists for: the writer's lock and the
// readers' pointer on one line, and nothing keeping the struct's
// neighbours off it either.
type Bare struct {
	mu sync.Mutex // want `field mu shares a cache line with //repro:polled Bare\.p on amd64 \(0 bytes away\), arm64 \(0 bytes away\), 386 \(0 bytes away\)`
	//repro:polled
	p *int // want `//repro:polled Bare\.p has less than 64 bytes of blank padding after it inside the struct on amd64 \(0 bytes\), arm64 \(0 bytes\), 386 \(0 bytes\)`
}

// ShortPad pads, but not by a whole line: the bookkeeping after the
// pointer is still on it.
type ShortPad struct {
	_ [64]byte
	//repro:polled
	p    *int
	_    [48]byte
	used int // want `field used shares a cache line with //repro:polled ShortPad\.p on amd64 \(48 bytes away\), arm64 \(48 bytes away\), 386 \(48 bytes away\)`
}

// WordPad builds its pads from machine words: a line on 64-bit targets,
// half of one on 386.
type WordPad struct {
	_ [8]uintptr
	p *int /* want `//repro:polled WordPad\.p has less than 64 bytes of blank padding before it inside the struct on 386 \(32 bytes\): whatever` */ //repro:polled
	_ [8]uintptr
	n int // want `field n shares a cache line with //repro:polled WordPad\.p on 386 \(32 bytes away\): every write`
}

// Later: a field added after the fact in front of the leading pad is
// fine, one slipped in behind it is not — and both neighbours inside
// the window are named, not only the nearest.
type Later struct {
	cfg int
	_   [64]byte
	a   int32 // want `field a shares a cache line with //repro:polled Later\.p on amd64 \(4 bytes away\)`
	b   int32 // want `field b shares a cache line with //repro:polled Later\.p on amd64 \(0 bytes away\)`
	//repro:polled
	p *int
	_ [64]byte
}

// Waived proves a reasoned waiver suppresses the finding, and that one
// without a reason is a finding of its own.
type Waived struct {
	_ [64]byte
	//repro:polled
	p *int
	//repro:falseshare-ok fixture: written once before the struct is shared, read-only afterwards
	limit int
	//repro:falseshare-ok
	hits int // want `//repro:falseshare-ok waiver is missing a reason`
	_    [64]byte
}

// Unmarked has the same shape as Bare and no polled word: not a
// finding.
type Unmarked struct {
	mu sync.Mutex
	p  *int
}
