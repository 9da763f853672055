package netem

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/timebase"
)

func basePath() PathConfig {
	return PathConfig{
		MinDelay:            400 * timebase.Microsecond,
		Hops:                5,
		BaseQueueMean:       30 * timebase.Microsecond,
		DiurnalAmplitude:    0.4,
		DiurnalPeak:         14 * timebase.Hour,
		EpisodeMeanGap:      2 * timebase.Hour,
		EpisodeMeanDuration: 5 * timebase.Minute,
		EpisodeScale:        0.5 * timebase.Millisecond,
		EpisodeShape:        1.6,
	}
}

func TestPathValidate(t *testing.T) {
	bad := basePath()
	bad.MinDelay = -1
	if _, err := NewPath(bad, rng.New(1)); err == nil {
		t.Error("negative MinDelay accepted")
	}
	bad = basePath()
	bad.DiurnalAmplitude = 1.5
	if _, err := NewPath(bad, rng.New(1)); err == nil {
		t.Error("DiurnalAmplitude >= 1 accepted")
	}
	bad = basePath()
	bad.EpisodeShape = 0
	if _, err := NewPath(bad, rng.New(1)); err == nil {
		t.Error("zero EpisodeShape accepted")
	}
}

func TestDelayAboveMinimum(t *testing.T) {
	p, err := NewPath(basePath(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		tt := float64(i) * 16
		d := p.Delay(tt)
		if d < p.MinAt(tt) {
			t.Fatalf("delay %v below minimum %v at t=%v", d, p.MinAt(tt), tt)
		}
	}
}

func TestDelayMinimumApproached(t *testing.T) {
	// Over a week of 16 s polling the observed minimum should come very
	// close to the configured minimum (this is what makes the RTT filter
	// viable). "Close" = within a few µs for a 30 µs-mean queue.
	cfg := basePath()
	p, err := NewPath(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	minSeen := math.Inf(1)
	for i := 0; i < int(timebase.Week/16); i++ {
		if d := p.Delay(float64(i) * 16); d < minSeen {
			minSeen = d
		}
	}
	if gap := minSeen - cfg.MinDelay; gap > 3*timebase.Microsecond {
		t.Errorf("weekly observed minimum exceeds true minimum by %v", gap)
	}
}

func TestBackwardsQueryPanics(t *testing.T) {
	p, err := NewPath(basePath(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	p.Delay(100)
	defer func() {
		if recover() == nil {
			t.Error("backwards query did not panic")
		}
	}()
	p.Delay(50)
}

func TestEpisodesOccurAndRaiseDelay(t *testing.T) {
	cfg := basePath()
	cfg.EpisodeMeanGap = 30 * timebase.Minute
	cfg.EpisodeMeanDuration = 10 * timebase.Minute
	p, err := NewPath(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var inEp, outEp []float64
	for i := 0; i < int(2*timebase.Day/16); i++ {
		d := p.Delay(float64(i) * 16)
		if p.inEpisode {
			inEp = append(inEp, d)
		} else {
			outEp = append(outEp, d)
		}
	}
	if len(inEp) == 0 {
		t.Fatal("no congestion episodes in 2 days with 30 min mean gap")
	}
	if len(outEp) == 0 {
		t.Fatal("always in episode")
	}
	if mean(inEp) < 2*mean(outEp) {
		t.Errorf("episodes do not raise delay: in=%v out=%v", mean(inEp), mean(outEp))
	}
}

func TestDiurnalModulation(t *testing.T) {
	cfg := basePath()
	cfg.EpisodeScale = 0 // isolate the light-load component
	cfg.EpisodeMeanGap = 0
	cfg.EpisodeMeanDuration = 0
	p, err := NewPath(cfg, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	var peak, trough []float64
	for day := 0; day < 60; day++ {
		base := float64(day) * timebase.Day
		for k := 0; k < 50; k++ {
			// Near the configured peak (14 h) vs the trough (2 h + 24 h).
			trough = append(trough, p.Delay(base+2*timebase.Hour+float64(k))-cfg.MinDelay)
		}
		for k := 0; k < 50; k++ {
			peak = append(peak, p.Delay(base+14*timebase.Hour+float64(k))-cfg.MinDelay)
		}
	}
	ratio := mean(peak) / mean(trough)
	want := (1 + cfg.DiurnalAmplitude) / (1 - cfg.DiurnalAmplitude)
	if math.Abs(ratio-want) > 0.35 {
		t.Errorf("peak/trough queueing ratio = %v, want ~%v", ratio, want)
	}
}

func TestLevelShifts(t *testing.T) {
	cfg := basePath()
	cfg.Shifts = []Shift{
		{At: 1000, Delta: 0.9 * timebase.Millisecond, Duration: 500}, // temporary
		{At: 3000, Delta: -0.2 * timebase.Millisecond},               // permanent down
	}
	p, err := NewPath(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	m0 := cfg.MinDelay
	cases := []struct {
		t    float64
		want float64
	}{
		{0, m0},
		{999, m0},
		{1000, m0 + 0.9*timebase.Millisecond},
		{1499, m0 + 0.9*timebase.Millisecond},
		{1500, m0},
		{2999, m0},
		{3000, m0 - 0.2*timebase.Millisecond},
		{1e6, m0 - 0.2*timebase.Millisecond},
	}
	for _, c := range cases {
		if got := p.MinAt(c.t); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("MinAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestMinAtNeverNegative(t *testing.T) {
	cfg := basePath()
	cfg.Shifts = []Shift{{At: 10, Delta: -10}}
	p, err := NewPath(cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.MinAt(20); got != 0 {
		t.Errorf("MinAt after huge downward shift = %v, want clamp to 0", got)
	}
}

func TestHostStampDistribution(t *testing.T) {
	h, err := NewHostStamp(DefaultHostStamp(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	var lags []float64
	big := 0
	for i := 0; i < n; i++ {
		lag := h.RecvLag()
		if lag < 0 {
			t.Fatalf("negative receive lag %v", lag)
		}
		if lag > timebase.Millisecond {
			big++
		}
		lags = append(lags, lag)
	}
	// Dominant mode is a few µs; median must be below 15 µs = delta.
	med := median(lags)
	if med > 15*timebase.Microsecond {
		t.Errorf("median receive lag %v exceeds delta", med)
	}
	// Scheduling errors are ~1e-4; allow [0, 5e-4] of draws beyond 1 ms.
	if frac := float64(big) / n; frac > 5e-4 {
		t.Errorf("too many >1 ms scheduling errors: %v", frac)
	}
	for i := 0; i < 1000; i++ {
		if l := h.SendLead(); l < 0 {
			t.Fatalf("negative send lead %v", l)
		}
	}
}

func TestHostStampValidate(t *testing.T) {
	bad := DefaultHostStamp()
	bad.SideModes = []SideMode{{Offset: 1e-5, Prob: 0.9}, {Offset: 2e-5, Prob: 0.2}}
	if _, err := NewHostStamp(bad, rng.New(1)); err == nil {
		t.Error("probabilities exceeding 1 accepted")
	}
}

func TestServerTurnaround(t *testing.T) {
	s, err := NewServer(DefaultServer(), rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	minSeen := math.Inf(1)
	for i := 0; i < 100000; i++ {
		d := s.Turnaround()
		if d < s.cfg.MinProc {
			t.Fatalf("turnaround %v below minimum %v", d, s.cfg.MinProc)
		}
		if d < minSeen {
			minSeen = d
		}
	}
	if minSeen > s.cfg.MinProc+2*timebase.Microsecond {
		t.Errorf("observed min turnaround %v far above configured %v", minSeen, s.cfg.MinProc)
	}
}

func TestServerFaultWindow(t *testing.T) {
	cfg := DefaultServer()
	cfg.ClockWanderAmp = 0
	cfg.Faults = []FaultWindow{{From: 100, To: 400, Offset: 150 * timebase.Millisecond}}
	s, err := NewServer(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ClockOffset(50); got != 0 {
		t.Errorf("offset before fault = %v", got)
	}
	if got := s.ClockOffset(250); got != 150*timebase.Millisecond {
		t.Errorf("offset during fault = %v", got)
	}
	if got := s.ClockOffset(400); got != 0 {
		t.Errorf("offset after fault = %v", got)
	}
}

func TestServerStamps(t *testing.T) {
	cfg := DefaultServer()
	cfg.ClockWanderAmp = 0
	cfg.TeOutlierProb = 0
	s, err := NewServer(cfg, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		tb := float64(i)
		if got := s.StampArrival(tb); got < tb {
			t.Fatalf("arrival stamp %v before true arrival %v", got, tb)
		}
		te := float64(i) + 0.5
		if got := s.StampDeparture(te); got > te {
			t.Fatalf("departure stamp %v after true departure %v without outliers", got, te)
		}
	}
}

func TestServerTeOutliers(t *testing.T) {
	cfg := DefaultServer()
	cfg.ClockWanderAmp = 0
	cfg.TeOutlierProb = 0.05 // inflated so the test is fast
	s, err := NewServer(cfg, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	outliers := 0
	for i := 0; i < 20000; i++ {
		te := float64(i)
		if s.StampDeparture(te)-te > 0.1*timebase.Millisecond {
			outliers++
		}
	}
	if outliers == 0 {
		t.Error("no Te outliers observed at 5% injection rate")
	}
}

func TestServerClockWander(t *testing.T) {
	cfg := DefaultServer()
	s, err := NewServer(cfg, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	maxAbs := 0.0
	for tt := 0.0; tt < timebase.Day; tt += 60 {
		if v := math.Abs(s.ClockOffset(tt)); v > maxAbs {
			maxAbs = v
		}
	}
	if maxAbs == 0 {
		t.Error("server clock wander absent")
	}
	if maxAbs > cfg.ClockWanderAmp*1.001 {
		t.Errorf("wander %v exceeds amplitude %v", maxAbs, cfg.ClockWanderAmp)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}

func BenchmarkPathDelay(b *testing.B) {
	p, err := NewPath(basePath(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.Delay(float64(i) * 16)
	}
	_ = sink
}
