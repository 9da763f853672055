package cacheline

import "testing"

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
