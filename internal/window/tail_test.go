package window

import (
	"testing"

	"repro/internal/rng"
)

// TestTailModel drives a Tail and a plain-slice model with the same
// random pushes and drops, in both of the engine's disciplines — keep at
// most half the limit live, or drop half the limit when full — and
// requires identical contents, a backing array that grows lazily and
// never past its limit, and slices that alias the live elements.
func TestTailModel(t *testing.T) {
	src := rng.New(5)
	for _, limit := range []int{1, 2, 7, 16, 33, 100} {
		for _, halfLive := range []bool{true, false} {
			tl := MakeTail[int](limit)
			if tl.Cap() != 0 {
				t.Fatalf("limit %d: MakeTail reserved %d", limit, tl.Cap())
			}
			var model []int
			for v := 0; v < 20*limit+50; v++ {
				switch {
				case halfLive && len(model) > limit/2:
					tl.DropFront(1)
					model = model[1:]
				case !halfLive && len(model) == limit:
					tl.DropFront(max(1, limit/2))
					model = model[max(1, limit/2):]
				case src.Bool(0.1):
					k := src.Intn(len(model) + 2)
					tl.DropFront(k)
					model = model[min(k, len(model)):]
				}
				if len(model) == limit {
					continue // a full Tail takes no push (TestTailPanics)
				}
				*tl.Push() = v
				model = append(model, v)

				if tl.Len() != len(model) || tl.Cap() > limit {
					t.Fatalf("limit %d: Len %d (model %d), Cap %d", limit, tl.Len(), len(model), tl.Cap())
				}
				for i, want := range model {
					if got := *tl.At(i); got != want {
						t.Fatalf("limit %d: At(%d) = %d, want %d", limit, i, got, want)
					}
				}
				if *tl.Front() != model[0] || *tl.Back() != v {
					t.Fatalf("limit %d: Front %d Back %d, want %d %d", limit, *tl.Front(), *tl.Back(), model[0], v)
				}
				s := tl.Slice(0, tl.Len())
				s[len(s)-1] = -v
				if *tl.Back() != -v {
					t.Fatalf("limit %d: Slice does not alias the live elements", limit)
				}
				*tl.Back() = v
			}
		}
	}
}

func TestTailPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("MakeTail zero limit", func() { MakeTail[int](0) })
	tl := MakeTail[int](2)
	expectPanic("At empty", func() { tl.At(0) })
	*tl.Push() = 1
	*tl.Push() = 2
	expectPanic("Push full", func() { tl.Push() })
	expectPanic("DropFront negative", func() { tl.DropFront(-1) })
	tl.DropFront(1)
	expectPanic("At dropped", func() { tl.At(1) })
	*tl.Push() = 3
	if tl.Len() != 2 || *tl.Front() != 2 || *tl.Back() != 3 || tl.Cap() != 2 {
		t.Errorf("after drop and push: Len %d, Front %d, Back %d, Cap %d", tl.Len(), *tl.Front(), *tl.Back(), tl.Cap())
	}
}
