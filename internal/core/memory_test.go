package core

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestEngineMemoryBounded pins what the engine keeps per packet and for
// how long: the history holds at most nTop records of at most 48 bytes
// in a backing array of exactly nTop once full, the scan window at most
// nScan 24-byte scanRecs — never more than the history — in a backing
// array of at most 2·nScan, and NewSync reserves neither: an engine
// built for 1 ms polls, where nTop is 604.8 million packets, costs what
// one built for 16 s polls does.
func TestEngineMemoryBounded(t *testing.T) {
	if sz := unsafe.Sizeof(record{}); sz > 48 {
		t.Errorf("history record is %d bytes, want at most 48", sz)
	}
	if sz := unsafe.Sizeof(scanRec{}); sz != 24 {
		t.Errorf("scanRec is %d bytes, want 24", sz)
	}

	base := DefaultConfig(2e-9, 16)
	local := base
	local.UseLocalRate = true
	for _, c := range []struct {
		name  string
		cfg   Config
		nScan int
	}{
		{"default", base, 156},     // nShift = T_s/16 s
		{"local-rate", local, 313}, // nLocalWin = τ̄/16 s
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewSync(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s.nTop != 37800 || s.nScan != c.nScan {
				t.Fatalf("nTop %d, nScan %d; want 37800, %d", s.nTop, s.nScan, c.nScan)
			}
			trace := SynthTrace(s.nTop*3/2 + s.nTop/4) // two slides
			for k, in := range trace {
				if _, err := s.Process(in); err != nil {
					t.Fatal(err)
				}
				if got, want := s.scan.Len(), min(s.nScan, s.hist.Len()); got != want {
					t.Fatalf("packet %d: scan window holds %d, want min(nScan, history) = %d", k, got, want)
				}
				if s.hist.Cap() > s.nTop || s.scan.Cap() > 2*s.nScan {
					t.Fatalf("packet %d: backing arrays %d and %d, limits %d and %d",
						k, s.hist.Cap(), s.scan.Cap(), s.nTop, 2*s.nScan)
				}
			}
			if s.hist.Cap() != s.nTop {
				t.Errorf("history capacity %d after %d packets, want nTop = %d", s.hist.Cap(), len(trace), s.nTop)
			}
		})
	}

	t.Run("lazy", func(t *testing.T) {
		perEngine := func(poll float64) uint64 {
			cfg := DefaultConfig(2e-9, poll)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const n = 20
			for i := 0; i < n; i++ {
				if _, err := NewSync(cfg); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / n
		}
		slow, fast := perEngine(16), perEngine(1e-3)
		if fast > slow+1024 {
			t.Errorf("NewSync allocates %d B at 1 ms polls against %d B at 16 s: it reserves window space up front", fast, slow)
		}
	})
}
