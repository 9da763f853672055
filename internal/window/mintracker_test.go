package window

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMinTrackerBasics(t *testing.T) {
	var m MinTracker
	if _, ok := m.Min(); ok {
		t.Error("empty tracker reported a minimum")
	}
	m.Push(0, 5)
	m.Push(1, 3)
	m.Push(2, 4)
	if v, _ := m.Min(); v != 3 {
		t.Errorf("Min = %v, want 3", v)
	}
	if s, _ := m.MinSeq(); s != 1 {
		t.Errorf("MinSeq = %d, want 1", s)
	}
	m.EvictBefore(2) // drops seq 0 and 1
	if v, _ := m.Min(); v != 4 {
		t.Errorf("Min after evict = %v, want 4", v)
	}
	m.Reset()
	if _, ok := m.Min(); ok {
		t.Error("reset tracker reported a minimum")
	}
	m.Push(0, 1) // seq may restart after Reset
	if v, _ := m.Min(); v != 1 {
		t.Errorf("Min after reset+push = %v", v)
	}
}

func TestMinTrackerTies(t *testing.T) {
	var m MinTracker
	m.Push(0, 2)
	m.Push(1, 2)
	m.Push(2, 2)
	// The newest of equal minima must survive: evicting everything
	// before seq 2 must keep the minimum available.
	m.EvictBefore(2)
	if v, ok := m.Min(); !ok || v != 2 {
		t.Errorf("Min after tie eviction = %v, %v", v, ok)
	}
	if s, _ := m.MinSeq(); s != 2 {
		t.Errorf("MinSeq = %d, want 2 (newest tie)", s)
	}
}

func TestMinTrackerKeepOldestTies(t *testing.T) {
	m := MinTracker{KeepOldestTies: true}
	m.Push(0, 2)
	m.Push(1, 2)
	m.Push(2, 2)
	// All equal minima are retained; the front is the oldest one.
	if s, _ := m.MinSeq(); s != 0 {
		t.Errorf("MinSeq = %d, want 0 (oldest tie)", s)
	}
	m.EvictBefore(1)
	if s, _ := m.MinSeq(); s != 1 {
		t.Errorf("MinSeq after evict = %d, want 1", s)
	}
	m.Push(3, 1)
	if s, _ := m.MinSeq(); s != 3 {
		t.Errorf("MinSeq after smaller push = %d, want 3", s)
	}
	m.Push(4, 1) // tie with the new minimum: the older must keep winning
	if s, _ := m.MinSeq(); s != 3 {
		t.Errorf("MinSeq after tied push = %d, want 3", s)
	}
}

// TestMinTrackerKeepOldestTiesAgainstNaive: with the oldest-tie policy,
// MinSeq must match the FIRST index attaining the window minimum — the
// selection rule of the engine's local-rate near/far sub-window scans.
func TestMinTrackerKeepOldestTiesAgainstNaive(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		const n, w = 500, 29
		vals := make([]float64, n)
		for i := range vals {
			// Coarse quantization makes ties frequent.
			vals[i] = float64(int(src.Float64() * 8))
		}
		m := MinTracker{KeepOldestTies: true}
		for i := 0; i < n; i++ {
			m.Push(i, vals[i])
			m.EvictBefore(i - w + 1)
			naiveVal, naiveSeq := math.Inf(1), -1
			for j := max(0, i-w+1); j <= i; j++ {
				if vals[j] < naiveVal {
					naiveVal, naiveSeq = vals[j], j
				}
			}
			gotVal, ok := m.Min()
			gotSeq, _ := m.MinSeq()
			if !ok || gotVal != naiveVal || gotSeq != naiveSeq {
				t.Logf("step %d: tracker (%v, seq %d, ok=%v), naive (%v, seq %d)",
					i, gotVal, gotSeq, ok, naiveVal, naiveSeq)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMinTrackerOrderPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-order push did not panic")
		}
	}()
	var m MinTracker
	m.Push(5, 1)
	m.Push(5, 2)
}

// TestMinTrackerAgainstNaive: sliding a fixed-width window over random
// data, the tracker must agree with a naive full scan at every step.
func TestMinTrackerAgainstNaive(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		const n, w = 600, 37
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = src.Normal(0, 1)
			if i > 0 && src.Bool(0.1) {
				vals[i] = vals[i-1] // occasional duplicates
			}
		}
		var m MinTracker
		for i := 0; i < n; i++ {
			m.Push(i, vals[i])
			m.EvictBefore(i - w + 1)
			naive := math.Inf(1)
			for j := max(0, i-w+1); j <= i; j++ {
				if vals[j] < naive {
					naive = vals[j]
				}
			}
			if got, ok := m.Min(); !ok || got != naive {
				t.Logf("step %d: tracker %v (ok=%v), naive %v", i, got, ok, naive)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMinTrackerSuffixMin: SuffixMin must agree with a naive scan for
// every possible suffix at every step, including suffixes younger than
// the retained window (empty result) and interleaved evictions.
func TestMinTrackerSuffixMin(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		const n = 300
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = src.Exponential(1)
			if i > 0 && src.Bool(0.15) {
				vals[i] = vals[i-1]
			}
		}
		var m MinTracker
		lo := 0
		for i := 0; i < n; i++ {
			m.Push(i, vals[i])
			if src.Bool(0.05) {
				lo += int(src.Float64() * float64(i-lo+1))
				m.EvictBefore(lo)
			}
			// Probe a handful of suffixes, including out-of-range ones.
			for _, s := range []int{lo, lo + (i-lo)/2, i, i + 1, i - 3} {
				naive := math.Inf(1)
				start := max(s, lo)
				for j := start; j <= i; j++ {
					naive = math.Min(naive, vals[j])
				}
				got, ok := m.SuffixMin(s)
				if math.IsInf(naive, 1) {
					if ok {
						t.Logf("step %d suffix %d: got %v, want empty", i, s, got)
						return false
					}
					continue
				}
				if !ok || got != naive {
					t.Logf("step %d suffix %d: got %v (ok=%v), want %v", i, s, got, ok, naive)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMinTrackerJumpingWindow models the engine's r̂ window: the
// trailing edge jumps forward irregularly (top-window slides, level
// shift re-bases) rather than advancing by one.
func TestMinTrackerJumpingWindow(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		const n = 400
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = src.Exponential(1)
		}
		var m MinTracker
		lo := 0
		for i := 0; i < n; i++ {
			m.Push(i, vals[i])
			if src.Bool(0.07) {
				// Jump the trailing edge forward to a random point at
				// or before the newest sample.
				lo += int(src.Float64() * float64(i-lo+1))
				m.EvictBefore(lo)
			}
			naive := math.Inf(1)
			for j := lo; j <= i; j++ {
				if vals[j] < naive {
					naive = vals[j]
				}
			}
			if got, ok := m.Min(); !ok || got != naive {
				t.Logf("step %d lo %d: tracker %v (ok=%v), naive %v", i, lo, got, ok, naive)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMinTrackerPush(b *testing.B) {
	src := rng.New(1)
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = src.Exponential(1)
	}
	var m MinTracker
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Push(i, vals[i&(len(vals)-1)])
		m.EvictBefore(i - 1024)
		if _, ok := m.Min(); !ok {
			b.Fatal("empty")
		}
	}
}
