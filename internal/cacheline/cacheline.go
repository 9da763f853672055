// Package cacheline holds the two facts the writer→reader hand-off is
// laid out around: the size of the unit two cores exchange, and the
// order publication slots are carved from a slab so that consecutive
// publications never share one.
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
func Slot(i, n int) int {
	if h := n / 2; i >= h {
		return 2 * (i - h)
	}
	return 2*i + 1
}
