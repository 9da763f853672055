package experiments

import (
	"runtime"
	"testing"
)

// runLongRunDays runs the longrun experiment at the given trace length
// with a GC fence before it, asserting every shape check, and returns
// the sampled peak-heap watermark.
func runLongRunDays(t *testing.T, days float64) uint64 {
	t.Helper()
	runtime.GC()
	rep, err := Run("longrun", Options{LongRunDays: days})
	if err != nil {
		t.Fatalf("longrun %gd: %v", days, err)
	}
	for _, c := range rep.Checks {
		if !c.Pass() {
			t.Errorf("longrun %gd check %q: want %s, got %s", days, c.Name, c.Want(), c.Got())
		}
	}
	if rep.PeakHeap == 0 {
		t.Fatalf("longrun %gd did not sample its heap watermark", days)
	}
	return rep.PeakHeap
}

// TestLongRunConstantMemory is the CI gate on the streaming pipeline's
// reason to exist: peak heap must not grow with trace length. It
// compares runs 4× apart in packet count (12 vs 48 days of simulated
// ServerInt polling, 64 800 vs 259 200 packets end to end through
// generation, the engine, the online statistics and the windowed
// series), both past the watermark's plateau: by ~day 10 the bounded
// accumulators (the 32k exact-prefix quantile buffer, the one-day Allan
// ring, the decimated previews) have reached their fixed ceilings and
// the watermark sits at the GC overshoot over a ~0.25 MB live set, flat
// in further length. Materializing either the trace (~100 B/exchange)
// or the error series for sorting would scale the 48-day run by the
// extra ~194 000 packets (tens of MB) and trip the bound; watermark
// noise stays well inside the slack.
func TestLongRunConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-week streaming runs take a few seconds")
	}
	peakShort := runLongRunDays(t, 12)
	peakLong := runLongRunDays(t, 48)
	const slack = 8 << 20
	t.Logf("peak heap: 12 days %.2f MB, 48 days %.2f MB",
		float64(peakShort)/(1<<20), float64(peakLong)/(1<<20))
	if peakLong > peakShort+slack {
		t.Errorf("peak heap grew with trace length: 12d %d B vs 48d %d B (slack %d B)",
			peakShort, peakLong, slack)
	}
}
