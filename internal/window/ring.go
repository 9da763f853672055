// Package window provides the constant-time data structures behind the
// engine's sliding-window maintenance: a contiguous tail window for
// packet history, a power-of-two ring buffer, and a monotonic-deque
// minimum tracker built on it.
//
// The synchronization algorithms of the paper are windowed throughout —
// the top history window T, the level-shift window T_s, the offset
// window τ′ — and a naive implementation re-scans or re-copies whole
// windows on every packet. The structures here make every per-packet
// operation amortized O(1): the tail window drops by advancing an
// offset and moves its live elements down only when its capped backing
// array is full, the ring buffer slides by advancing its head, and the
// minimum tracker answers sliding-window minima by maintaining the
// classic monotonic deque of candidate minima.
//
//repro:deterministic
package window

// Ring is a growable power-of-two ring buffer (double-ended queue).
// Elements are addressed by logical position: position 0 is the oldest
// retained element. Pushes and pops at either end are amortized O(1);
// the backing array is stable between grows, so steady-state operation
// performs no allocation.
//
// The zero value is an empty ring and ready to use.
type Ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // physical index of logical position 0
	n    int // number of elements
}

// NewRing returns a ring with capacity for at least capHint elements
// (rounded up to a power of two), avoiding growth reallocations when
// the final size is known up front.
func NewRing[T any](capHint int) *Ring[T] {
	r := &Ring[T]{}
	if capHint > 0 {
		r.buf = make([]T, ceilPow2(capHint))
	}
	return r
}

// ceilPow2 returns the smallest power of two >= v (and at least 2).
func ceilPow2(v int) int {
	p := 2
	for p < v {
		p <<= 1
	}
	return p
}

// Len returns the number of elements held.
//
//repro:hotpath
func (r *Ring[T]) Len() int { return r.n }

// At returns a pointer to the element at logical position i (0 is the
// oldest). The pointer stays valid until the ring grows or the slot is
// popped and overwritten by a later push.
//
//repro:hotpath
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.n {
		panic("window: ring index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Front returns a pointer to the oldest element.
//
//repro:hotpath
func (r *Ring[T]) Front() *T { return r.At(0) }

// Back returns a pointer to the newest element.
//
//repro:hotpath
func (r *Ring[T]) Back() *T { return r.At(r.n - 1) }

// PushBack appends v as the newest element, growing if full.
//
//repro:hotpath
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PopFront removes and returns the oldest element.
//
//repro:hotpath
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("window: PopFront on empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // release references held by T
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// PopBack removes and returns the newest element.
//
//repro:hotpath
func (r *Ring[T]) PopBack() T {
	if r.n == 0 {
		panic("window: PopBack on empty ring")
	}
	var zero T
	i := (r.head + r.n - 1) & (len(r.buf) - 1)
	v := r.buf[i]
	r.buf[i] = zero
	r.n--
	return v
}

// DropFront discards the k oldest elements by advancing the head: O(1),
// no copying, no reallocation. The dropped slots are NOT cleared: an
// element type holding pointers would keep its referents reachable
// until later pushes overwrite the slots, so such a ring should
// PopFront instead. The engine's rings hold pointer-free elements,
// which a test in internal/core pins. k larger than Len empties the
// ring; negative k panics.
//
//repro:hotpath
func (r *Ring[T]) DropFront(k int) {
	if k < 0 {
		panic("window: DropFront with negative count")
	}
	if k >= r.n {
		k = r.n
	}
	r.head = (r.head + k) & (len(r.buf) - 1)
	r.n -= k
	if r.n == 0 {
		r.head = 0
	}
}

// Slices returns the logical range [i, j) as at most two contiguous
// sub-slices of the backing array (the range may wrap around the
// physical end). Iterating the returned slices directly lets hot loops
// avoid the per-element index masking of At.
//
//repro:hotpath
func (r *Ring[T]) Slices(i, j int) (first, second []T) {
	if i < 0 || j > r.n || i > j {
		panic("window: ring slice range out of bounds")
	}
	if i == j {
		return nil, nil
	}
	lo := (r.head + i) & (len(r.buf) - 1)
	hi := (r.head + j) & (len(r.buf) - 1)
	if lo < hi {
		return r.buf[lo:hi], nil
	}
	return r.buf[lo:], r.buf[:hi]
}

// grow doubles the capacity, copying elements into logical order so
// the head returns to physical index 0.
func (r *Ring[T]) grow() {
	newCap := 2
	if len(r.buf) > 0 {
		newCap = 2 * len(r.buf)
	}
	//repro:alloc-ok amortized doubling: one allocation per capacity doubling, so a ring grows only when its population reaches a new high; the engine's min-tracker deques are bounded by their windows and stop growing once those have filled
	nb := make([]T, newCap)
	a, b := r.slicesAll()
	copy(nb, a)
	copy(nb[len(a):], b)
	r.buf = nb
	r.head = 0
}

// slicesAll returns the full contents as two contiguous sub-slices.
func (r *Ring[T]) slicesAll() (first, second []T) {
	if r.n == 0 {
		return nil, nil
	}
	return r.Slices(0, r.n)
}
