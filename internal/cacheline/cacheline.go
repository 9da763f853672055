// Package cacheline holds the facts the writer→reader hand-off is laid
// out around: the size of the unit two cores exchange, the order
// publication slots are carved from a slab so that consecutive
// publications never share one, and Slab, the one carver every
// publication slot of internal/core and internal/ensemble comes from.
//
// A publication has to move exactly one line between cores — the line
// holding the published pointer — plus the freshly written readout the
// pointer leads to. Anything else the writer dirties on a line a reader
// polls is false sharing: the reader's next load misses for a change it
// does not care about. The layouts that keep it out (padding around
// every polled word, Slot order in every slab) are checked by the
// falseshare analyzer of internal/analysis and by the address tests of
// internal/core and internal/ensemble.
package cacheline

import "unsafe"

// Size is the coherence granule in bytes: 64 on every amd64 and on the
// arm64 cores this runs on. Isolating to 128 (the adjacent-line
// prefetcher's pair) was measured and bought nothing (PERF.md "PR 14").
const Size = 64

// Pad is one line of blank space: a `_ Pad` field on each side of a
// polled word keeps every other field off the word's line wherever the
// allocator puts the struct.
type Pad [Size]byte

// Slot maps the i-th carve (0 ≤ i < n, n even) of an n-slot slab to a
// slot index: the odd indices in ascending order, then the even ones.
// Neighbouring carves are two slots apart, so the slot being filled and
// the live one before it never touch the same line as long as a slot is
// at least Size bytes — at no extra memory, since every slot is still
// handed out exactly once. Odd first, so that both the first and the
// last carve of a slab (slots 1 and n−2) are interior: two slabs the
// allocator happens to place back to back keep the separation across
// the refill too.
func Slot(i, n int) int { return (2*i + 1) % (n + 1) }

// SlabRuns is how many runs one Slab allocation hands out. Every
// published value must live in a never-reused slot (readers may hold
// the pointer indefinitely), so publication cannot be allocation-free;
// carving the slots from a block cuts the write path from one heap
// allocation per publication to one per SlabRuns. The trade: a reader
// pinning one old publication keeps its whole slab reachable (≈ 22 KiB
// of 88-byte engine readouts).
const SlabRuns = 256

// Slab is a writer-owned carver of never-reused publication runs of T.
// Runs are carved in Slot order, each from a slot of stride elements:
// the width, rounded up so that no slot is narrower than a line. Two
// consecutive runs therefore have a whole untouched slot between them,
// and the one being filled never shares a line with the live one before
// it, whatever T's size — at no extra memory unless a run is narrower
// than a line. The zero value is ready; the writer serializes every
// call.
type Slab[T any] struct {
	buf    []T    // the current slab
	carved uint64 // runs carved so far; carved mod SlabRuns of them from buf
}

// Carve returns a zeroed, never-reused run of width elements, capacity
// width too, so that an append could never bleed into another run. The
// width must be the same on every call. Carve is within the inlining
// budget, so a publication pays no call for it.
//
//repro:hotpath
func (s *Slab[T]) Carve(width int) []T {
	var zero T
	stride := max(width, int((Size+unsafe.Sizeof(zero)-1)/unsafe.Sizeof(zero)))
	k := int(s.carved % SlabRuns)
	if k == 0 {
		//repro:alloc-ok amortized slab refill: one allocation per SlabRuns publications, the documented publication cost (PERF.md)
		s.buf = make([]T, SlabRuns*stride)
	}
	s.carved++
	i := Slot(k, SlabRuns) * stride
	return s.buf[i : i+width : i+width]
}

// Carved returns how many runs have been carved so far.
func (s *Slab[T]) Carved() uint64 { return s.carved }
