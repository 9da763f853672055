package window

// MinTracker answers sliding-window minimum queries in amortized O(1)
// per sample using a monotonic deque: the classic structure where each
// new sample evicts every pending candidate that it dominates (older
// AND not smaller), so the deque always holds the strictly increasing
// sequence of future minima, oldest (and smallest) at the front.
//
// Samples are keyed by an integer sequence number that must be pushed
// in strictly increasing order; the window's trailing edge advances via
// EvictBefore. Both edges may only move forward, which is exactly the
// discipline of the engine's r̂ and r̂_l windows: the shift window
// trails the newest packet, and the global window jumps forward at
// top-window slides and level-shift re-bases.
//
// The zero value is an empty tracker and ready to use.
type MinTracker struct {
	dq  Ring[minEntry]
	max int // largest seq pushed, for order checking

	// KeepOldestTies selects the tie policy for equal minima. The zero
	// value (false) keeps only the newest of equal values — the right
	// choice when only the minimum VALUE matters, because the newest
	// equal sample survives window eviction longest and the deque stays
	// strictly increasing. Set it to true when the IDENTITY of the
	// minimum matters and ties must resolve to the oldest sample (the
	// engine's local-rate near/far sub-windows pick the first record of
	// minimal point error, and point-error ties at exactly zero are
	// common): equal values are then all retained, at the cost of a
	// potentially longer deque. Must be set before the first Push and
	// not changed afterwards.
	KeepOldestTies bool
}

type minEntry struct {
	seq int
	val float64
}

// Push adds sample (seq, val). seq must exceed every previously pushed
// sequence number.
//
//repro:hotpath
func (m *MinTracker) Push(seq int, val float64) {
	if m.dq.Len() > 0 && seq <= m.max {
		panic("window: MinTracker samples must have increasing seq")
	}
	m.max = seq
	if m.KeepOldestTies {
		// Ties retained: the front stays the oldest minimal sample.
		for m.dq.Len() > 0 && m.dq.Back().val > val {
			m.dq.PopBack()
		}
	} else {
		// Ties evict the older entry: the newest of equal minima survives
		// longest, maximizing how long the deque can answer with it.
		for m.dq.Len() > 0 && m.dq.Back().val >= val {
			m.dq.PopBack()
		}
	}
	m.dq.PushBack(minEntry{seq: seq, val: val})
}

// EvictBefore discards every sample with sequence number < seq,
// advancing the window's trailing edge. Amortized O(1): each entry is
// evicted at most once over its lifetime.
//
//repro:hotpath
func (m *MinTracker) EvictBefore(seq int) {
	for m.dq.Len() > 0 && m.dq.Front().seq < seq {
		m.dq.PopFront()
	}
}

// Min returns the minimum value among retained samples. ok is false
// when the tracker is empty.
//
//repro:hotpath
func (m *MinTracker) Min() (val float64, ok bool) {
	if m.dq.Len() == 0 {
		return 0, false
	}
	return m.dq.Front().val, true
}

// SuffixMin returns the minimum among retained samples with sequence
// number >= seq, without evicting anything: one tracker can therefore
// serve nested windows that share their leading edge (the engine's r̂
// over the whole retained history and r̂_l over the trailing shift
// window). This works because the deque retains exactly the samples
// that are smaller than everything after them: any sample discarded at
// push time was dominated by a newer, not-larger sample, which also
// represents it in every suffix query. ok is false when no retained
// sample has sequence number >= seq.
//
// Cost is O(log n) in the deque length (a binary search for the first
// entry at or after seq; entry values increase front to back — or are
// non-decreasing under KeepOldestTies, which preserves the suffix-min
// property just the same).
//
//repro:hotpath
func (m *MinTracker) SuffixMin(seq int) (val float64, ok bool) {
	n := m.dq.Len()
	lo, hi := 0, n // invariant: entries before lo have seq < target
	for lo < hi {
		mid := (lo + hi) / 2
		if m.dq.At(mid).seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == n {
		return 0, false
	}
	return m.dq.At(lo).val, true
}

// MinSeq returns the sequence number of the sample that attains the
// current minimum. Ties resolve by the tracker's tie policy: the newest
// such sample by default, the oldest under KeepOldestTies.
//
//repro:hotpath
func (m *MinTracker) MinSeq() (seq int, ok bool) {
	if m.dq.Len() == 0 {
		return 0, false
	}
	return m.dq.Front().seq, true
}

// Reset discards all state.
func (m *MinTracker) Reset() {
	m.dq.DropFront(m.dq.Len())
	m.max = 0
}
