package window

// Tail holds the newest elements of a stream, oldest first, in one
// contiguous slice whose backing array never exceeds a fixed limit.
// Dropping from the front advances an offset; when a push finds the
// array full, the live elements move down to its start, which costs one
// element copy per freed slot, so pushes stay amortized O(1) as long as
// the owner keeps at most half the limit live, as the engine's history
// and offset-scan window do.
//
// The backing array grows lazily, by doubling capped at the limit: a
// Tail sized for a window that is slow to fill (at millisecond polls the
// engine's shift window is millions of packets) costs only what it
// holds.
//
// Dropped and moved-from slots are not cleared: T must not hold
// pointers, or stale slots would keep their referents reachable.
//
// The zero value has limit 0 and panics on Push; use MakeTail.
type Tail[T any] struct {
	buf   []T // live elements are buf[lo:]
	lo    int
	limit int // largest backing array
}

// tailMinCap is the first backing array's size (or the limit, if
// smaller).
const tailMinCap = 16

// MakeTail returns an empty Tail whose backing array will hold at most
// limit elements. It allocates nothing.
func MakeTail[T any](limit int) Tail[T] {
	if limit < 1 {
		panic("window: Tail limit must be positive")
	}
	return Tail[T]{limit: limit}
}

// Len returns the number of live elements.
//
//repro:hotpath
func (t *Tail[T]) Len() int { return len(t.buf) - t.lo }

// Cap returns the current size of the backing array.
//
//repro:hotpath
func (t *Tail[T]) Cap() int { return cap(t.buf) }

// At returns a pointer to the element at position i (0 is the oldest).
// The pointer stays valid until the next Push.
//
//repro:hotpath
func (t *Tail[T]) At(i int) *T { return &t.buf[t.lo:][i] }

// Front returns a pointer to the oldest element.
//
//repro:hotpath
func (t *Tail[T]) Front() *T { return t.At(0) }

// Back returns a pointer to the newest element.
//
//repro:hotpath
func (t *Tail[T]) Back() *T { return &t.buf[len(t.buf)-1] }

// Slice returns positions [i, j) as one slice of the backing array,
// valid until the next Push.
//
//repro:hotpath
func (t *Tail[T]) Slice(i, j int) []T { return t.buf[t.lo:][i:j] }

// Push appends a new (stale-valued) element and returns a pointer to it.
// It panics if the live elements already fill the limit.
//
//repro:hotpath
func (t *Tail[T]) Push() *T {
	if len(t.buf) == cap(t.buf) {
		t.makeRoom()
	}
	t.buf = t.buf[:len(t.buf)+1]
	return &t.buf[len(t.buf)-1]
}

// DropFront discards the k oldest elements; k larger than Len empties
// the Tail, negative k panics.
//
//repro:hotpath
func (t *Tail[T]) DropFront(k int) {
	if k < 0 {
		panic("window: DropFront with negative count")
	}
	t.lo = min(t.lo+k, len(t.buf))
}

// makeRoom frees the slot after the newest element of a full backing
// array: by a capped doubling while the array is under its limit, by
// moving the live elements down to its start once it is at it.
func (t *Tail[T]) makeRoom() {
	live := t.buf[t.lo:]
	if c := cap(t.buf); c < t.limit {
		//repro:alloc-ok capped doubling: at most log2(limit/16)+2 allocations over a Tail's life and none once the backing reaches its limit, after which pushes only move elements down
		nb := make([]T, len(live), min(max(2*c, tailMinCap), t.limit))
		copy(nb, live)
		t.buf = nb
	} else {
		if t.lo == 0 {
			panic("window: Push on a full Tail")
		}
		t.buf = t.buf[:copy(t.buf, live)]
	}
	t.lo = 0
}
