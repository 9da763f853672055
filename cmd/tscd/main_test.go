package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// writeCapture streams the MR-ServerInt scenario at 16 s polls, seed 1
// and tracegen's default loss into a capture file, as `tracegen -days`
// does.
func writeCapture(t *testing.T, dur float64) string {
	t.Helper()
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, dur, 1)
	sc.LossProb = 0.0015
	st, err := sim.NewMultiStream(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.tsctrc")
	w, err := capture.CreateFile(path, capture.Meta{
		Name: sc.Name, PollPeriod: sc.PollPeriod, Duration: sc.Duration,
		Seed: sc.Seed, NominalHz: sc.Oscillator.NominalHz,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e, ok := st.Next(); ok; e, ok = st.Next() {
		if err := w.Write(e.Exchange); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplay pins what `tscd -mode replay` prints for a one-day capture
// (≈ 5 200 scored exchanges: the exact regime of the error fold), a
// seven-day one (≈ 37 500 scored: past the fold's 32 768-value exact
// prefix, so each level is a bucket midpoint) and one too short to
// score.
func TestReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		dur  float64
		want string
	}{
		{"one day", timebase.Day, "replayed %q (MR-ServerInt): 5391 exchanges fed, 9 lost\n" +
			"absolute clock:  median err 29.4µs, IQR 11.6µs, |median| 29.4µs\n" +
			"percentiles:     p01 9.39µs  p25 22.9µs  p50 29.4µs  p75 34.5µs  p99 46.8µs\n"},
		{"seven days", 7 * timebase.Day, "replayed %q (MR-ServerInt): 37753 exchanges fed, 47 lost\n" +
			"absolute clock:  median err 30.5µs, IQR 15.7µs, |median| 30.5µs\n" +
			"percentiles:     p01 5.5µs  p25 23.1µs  p50 30.5µs  p75 38.7µs  p99 58.8µs\n"},
		{"under an hour", 30 * timebase.Minute, "replayed %q (MR-ServerInt): 112 exchanges fed, 0 lost\n" +
			"trace too short to score (needs > 1 h)\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeCapture(t, tc.dur)
			var out strings.Builder
			if err := replay(&out, path, false); err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf(tc.want, path); out.String() != want {
				t.Errorf("printed\n%s\nwant\n%s", out.String(), want)
			}
		})
	}
}
