package window

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestRingBasics(t *testing.T) {
	r := NewRing[int](5)
	if len(r.buf) != 8 {
		t.Errorf("Cap = %d, want 8 (power of two >= 5)", len(r.buf))
	}
	if r.Len() != 0 {
		t.Errorf("new ring Len = %d", r.Len())
	}
	for i := 0; i < 10; i++ {
		r.PushBack(i)
	}
	if r.Len() != 10 || len(r.buf) != 16 {
		t.Errorf("Len=%d Cap=%d after growth, want 10, 16", r.Len(), len(r.buf))
	}
	if *r.Front() != 0 || *r.Back() != 9 {
		t.Errorf("Front=%d Back=%d", *r.Front(), *r.Back())
	}
	for i := 0; i < 10; i++ {
		if got := *r.At(i); got != i {
			t.Fatalf("At(%d) = %d", i, got)
		}
	}
	if got := r.PopFront(); got != 0 {
		t.Errorf("PopFront = %d", got)
	}
	if got := r.PopBack(); got != 9 {
		t.Errorf("PopBack = %d", got)
	}
	r.DropFront(3)
	if r.Len() != 5 || *r.Front() != 4 {
		t.Errorf("after DropFront(3): Len=%d Front=%d", r.Len(), *r.Front())
	}
}

func TestRingZeroValue(t *testing.T) {
	var r Ring[string]
	r.PushBack("a")
	r.PushBack("b")
	if r.Len() != 2 || *r.Front() != "a" || *r.Back() != "b" {
		t.Errorf("zero-value ring misbehaves: Len=%d", r.Len())
	}
}

func TestRingDropFrontBeyondLen(t *testing.T) {
	r := NewRing[int](4)
	r.PushBack(1)
	r.PushBack(2)
	r.DropFront(10)
	if r.Len() != 0 {
		t.Errorf("Len = %d after over-drop", r.Len())
	}
	r.PushBack(7)
	if *r.Front() != 7 {
		t.Errorf("push after over-drop: Front = %d", *r.Front())
	}
}

func TestRingStableBacking(t *testing.T) {
	// Once at capacity, interleaved push/drop must never reallocate:
	// the property that makes the engine's steady state allocation-free.
	r := NewRing[int](16)
	for i := 0; i < 16; i++ {
		r.PushBack(i)
	}
	p := r.At(0)
	for i := 16; i < 1000; i++ {
		r.DropFront(1)
		r.PushBack(i)
		if len(r.buf) != 16 {
			t.Fatalf("capacity changed to %d at step %d", len(r.buf), i)
		}
	}
	_ = p
	if *r.Front() != 1000-16 {
		t.Errorf("Front = %d", *r.Front())
	}
}

func TestRingSlices(t *testing.T) {
	r := NewRing[int](8)
	for i := 0; i < 8; i++ {
		r.PushBack(i)
	}
	r.DropFront(5) // head now mid-array
	for i := 8; i < 12; i++ {
		r.PushBack(i) // wraps
	}
	// Logical content: 5..11.
	collect := func(i, j int) []int {
		a, b := r.Slices(i, j)
		return append(append([]int{}, a...), b...)
	}
	got := collect(0, r.Len())
	for k, v := range got {
		if v != 5+k {
			t.Fatalf("Slices full: got[%d] = %d, want %d", k, v, 5+k)
		}
	}
	if sub := collect(2, 6); len(sub) != 4 || sub[0] != 7 || sub[3] != 10 {
		t.Errorf("Slices(2,6) = %v", sub)
	}
	if a, b := r.Slices(3, 3); a != nil || b != nil {
		t.Error("empty range returned non-nil slices")
	}
}

func TestRingPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	var r Ring[int]
	expectPanic("PopFront empty", func() { r.PopFront() })
	expectPanic("PopBack empty", func() { r.PopBack() })
	expectPanic("At empty", func() { r.At(0) })
	r.PushBack(1)
	expectPanic("At negative", func() { r.At(-1) })
	expectPanic("Slices bad range", func() { r.Slices(1, 0) })
	expectPanic("DropFront negative", func() { r.DropFront(-1) })
}

// TestRingModel drives a ring and a plain-slice model with the same
// random operation sequence and requires identical observable state.
func TestRingModel(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		var r Ring[int]
		var model []int
		next := 0
		for op := 0; op < 500; op++ {
			switch {
			case src.Bool(0.5) || len(model) == 0:
				r.PushBack(next)
				model = append(model, next)
				next++
			case src.Bool(0.3):
				k := int(src.Float64() * float64(len(model)+1))
				r.DropFront(k)
				if k > len(model) {
					k = len(model)
				}
				model = model[k:]
			case src.Bool(0.5):
				if got := r.PopFront(); got != model[0] {
					t.Logf("PopFront = %d, model %d", got, model[0])
					return false
				}
				model = model[1:]
			default:
				if got := r.PopBack(); got != model[len(model)-1] {
					t.Logf("PopBack = %d, model %d", got, model[len(model)-1])
					return false
				}
				model = model[:len(model)-1]
			}
			if r.Len() != len(model) {
				t.Logf("Len = %d, model %d", r.Len(), len(model))
				return false
			}
			for i := range model {
				if *r.At(i) != model[i] {
					t.Logf("At(%d) = %d, model %d", i, *r.At(i), model[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
