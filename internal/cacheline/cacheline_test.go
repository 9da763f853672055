package cacheline

import (
	"testing"
	"unsafe"
)

// TestSlotIsAPermutationWithGaps: every slot is handed out exactly
// once, no two consecutive carves are adjacent slots, and the first and
// last carve are interior.
func TestSlotIsAPermutationWithGaps(t *testing.T) {
	for _, n := range []int{4, 8, 256} {
		seen := make([]bool, n)
		prev := -1
		for i := 0; i < n; i++ {
			s := Slot(i, n)
			if s < 0 || s >= n || seen[s] {
				t.Fatalf("n=%d: carve %d → slot %d (out of range or handed out twice)", n, i, s)
			}
			seen[s] = true
			if d := s - prev; prev >= 0 && d >= -1 && d <= 1 {
				t.Errorf("n=%d: carves %d and %d are neighbouring slots %d and %d", n, i-1, i, prev, s)
			}
			prev = s
		}
		if Slot(0, n) == 0 || Slot(n-1, n) == n-1 {
			t.Errorf("n=%d: first/last carve at the slab's edge (%d, %d)", n, Slot(0, n), Slot(n-1, n))
		}
	}
}

// TestSlabCarve: a run narrower than a line is carved from a slot
// rounded up to one; for every width, consecutive runs lie at least a
// line apart and no run is handed out twice; a slab is refilled every
// SlabRuns carves and Carved counts them all.
func TestSlabCarve(t *testing.T) {
	type elem [24]byte // a voter's size: three to a line
	const size = unsafe.Sizeof(elem{})
	var one Slab[elem]
	r := one.Carve(1)
	if off := uintptr(unsafe.Pointer(&r[0])) - uintptr(unsafe.Pointer(&one.buf[0])); off != 3*size {
		t.Errorf("first one-element run at offset %d, want slot 1 of stride 3 (%d)", off, 3*size)
	}
	for width := 1; width <= 17; width++ {
		var s Slab[elem]
		seen := map[uintptr]bool{}
		var slabs []*elem // pins every slab: a freed one could legitimately come back
		var prev uintptr
		for i := 0; i < 3*SlabRuns+5; i++ {
			r := s.Carve(width)
			if len(r) != width || cap(r) != width {
				t.Fatalf("width %d, carve %d: len %d cap %d", width, i, len(r), cap(r))
			}
			fresh := len(slabs) == 0 || &s.buf[0] != slabs[len(slabs)-1]
			if fresh != (i%SlabRuns == 0) {
				t.Fatalf("width %d, carve %d: refilled %v, want a refill every %d carves", width, i, fresh, SlabRuns)
			}
			if fresh {
				slabs = append(slabs, &s.buf[0])
			}
			at := uintptr(unsafe.Pointer(&r[0]))
			if seen[at] {
				t.Fatalf("width %d, carve %d: run at %#x handed out twice", width, i, at)
			}
			seen[at] = true
			if lo, hi := min(prev, at), max(prev, at); i > 0 && hi < lo+uintptr(width)*size+Size {
				t.Fatalf("width %d, carve %d: run at %#x within %d bytes of its predecessor at %#x", width, i, at, Size, prev)
			}
			prev = at
		}
		if got := s.Carved(); got != 3*SlabRuns+5 {
			t.Errorf("width %d: Carved() = %d after %d carves", width, got, 3*SlabRuns+5)
		}
	}
}
