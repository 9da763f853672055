package core

import (
	"runtime"
	"testing"
	"unsafe"
)

// checkEngineMemory asserts the engine's retention bounds after a
// packet: the history holds the newest min(nKeep, count−front) records
// and the scan window the newest min(nScan, count−front) scanRecs, in
// backing arrays of at most twice that; each prefix-minimum list holds
// at most ⌈nTop/2⌉ records, and the two together no more than the top
// window has packets.
func checkEngineMemory(t *testing.T, k int, s *Sync) {
	t.Helper()
	top := s.count - s.front
	if got, want := s.hist.Len(), min(s.nKeep, top); got != want {
		t.Fatalf("packet %d: history holds %d, want min(nKeep, window) = %d", k, got, want)
	}
	if got, want := s.scan.Len(), min(s.nScan, top); got != want {
		t.Fatalf("packet %d: scan window holds %d, want min(nScan, window) = %d", k, got, want)
	}
	if s.hist.Cap() > 2*s.nKeep || s.scan.Cap() > 2*s.nScan {
		t.Fatalf("packet %d: backing arrays %d and %d, limits %d and %d",
			k, s.hist.Cap(), s.scan.Cap(), 2*s.nKeep, 2*s.nScan)
	}
	half := (s.nTop + 1) / 2
	if len(s.lows) > half || len(s.nextLows) > half || len(s.lows)+len(s.nextLows) > top {
		t.Fatalf("packet %d: prefix-minimum lists hold %d and %d, want each ≤ ⌈nTop/2⌉ = %d and both ≤ window = %d",
			k, len(s.lows), len(s.nextLows), half, top)
	}
}

// retainedBytes is what the engine's per-packet stores hold on to.
func retainedBytes(s *Sync) uintptr {
	return uintptr(s.hist.Cap()+cap(s.lows)+cap(s.nextLows))*unsafe.Sizeof(record{}) +
		uintptr(s.scan.Cap())*unsafe.Sizeof(scanRec{})
}

// TestEngineMemoryBounded pins what the engine keeps per packet and for
// how long: no store grows with the top window. At 16 s polls a week's
// window is 37 800 packets, and after two slides the engine holds a few
// tens of kilobytes; an engine at 1 s polls, whose window would be
// 604 800 packets, holds no more records after 200 000 than nKeep's
// bound; even a path whose every packet is a new minimum RTT, the
// prefix-minimum lists' worst case, keeps within their bounds; and
// NewSync reserves nothing, so an engine built for 1 ms polls costs what
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
		name     string
		cfg      Config
		nScan    int
		maxBytes uintptr
	}{
		{"default", base, 156, 32 << 10},     // nShift = T_s/16 s
		{"local-rate", local, 313, 64 << 10}, // nLocalWin = τ̄/16 s
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewSync(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s.nTop != 37800 || s.nScan != c.nScan || s.nKeep != c.nScan {
				t.Fatalf("nTop %d, nScan %d, nKeep %d; want 37800, %d, %d", s.nTop, s.nScan, s.nKeep, c.nScan, c.nScan)
			}
			trace := SynthTrace(s.nTop*3/2 + s.nTop/4) // two slides
			for k, in := range trace {
				if _, err := s.Process(in); err != nil {
					t.Fatal(err)
				}
				checkEngineMemory(t, k, s)
			}
			if s.front != s.nTop {
				t.Fatalf("top window starts at %d after %d packets, want two slides (%d)", s.front, len(trace), s.nTop)
			}
			if b := retainedBytes(s); b > c.maxBytes {
				t.Errorf("engine retains %d B after two slides, want at most %d", b, c.maxBytes)
			}
		})
	}

	t.Run("every-packet-new-minimum", func(t *testing.T) {
		cfg := DefaultConfig(2e-9, 16)
		cfg.TopWindow = 801 * 16
		s, err := NewSync(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trace := pathTrace(2000, func(k int) float64 { return 10e-3 - float64(k)*2e-6 })
		most := 0
		for k, in := range trace {
			if _, err := s.Process(in); err != nil {
				t.Fatal(err)
			}
			checkEngineMemory(t, k, s)
			most = max(most, len(s.lows)+len(s.nextLows))
		}
		if s.front < 2*(s.nTop/2) || most < s.nTop-1 {
			t.Errorf("window front %d, lists at most %d records together: the worst case was not reached", s.front, most)
		}
	})

	t.Run("1s-polls", func(t *testing.T) {
		s, err := NewSync(DefaultConfig(2e-9, 1))
		if err != nil {
			t.Fatal(err)
		}
		trace := SynthTrace(200000)
		for k, in := range trace {
			if _, err := s.Process(in); err != nil {
				t.Fatal(err)
			}
			if k%1000 == 0 {
				checkEngineMemory(t, k, s)
			}
		}
		checkEngineMemory(t, len(trace), s)
		if s.front != 0 || s.hist.Cap() > 2*s.nKeep {
			t.Errorf("window front %d, history backing %d records after %d packets; want no slide and at most 2·nKeep = %d",
				s.front, s.hist.Cap(), len(trace), 2*s.nKeep)
		}
	})

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
