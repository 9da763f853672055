package netem

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/timebase"
)

func TestRecvLagPartsDecomposition(t *testing.T) {
	h, err := NewHostStamp(DefaultHostStamp(), rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	sawExtra := false
	for i := 0; i < 50000; i++ {
		base, extra := h.RecvLagParts()
		if base < 0 || extra < 0 {
			t.Fatalf("negative lag component: base=%v extra=%v", base, extra)
		}
		// The base mode is the irreducible few-µs interrupt latency.
		if base > 20*timebase.Microsecond {
			t.Fatalf("base lag %v implausibly large", base)
		}
		if extra > 0 {
			sawExtra = true
			// Extras are side modes (10/31 µs) or scheduling (>scale).
			if extra < 9*timebase.Microsecond {
				t.Fatalf("extra lag %v below the smallest side mode", extra)
			}
		}
	}
	if !sawExtra {
		t.Error("no side-mode/scheduling excursions in 50k draws")
	}
}

func TestUserLevelHostStampValid(t *testing.T) {
	if err := UserLevelHostStamp().Validate(); err != nil {
		t.Errorf("user-level preset invalid: %v", err)
	}
	h, err := NewHostStamp(UserLevelHostStamp(), rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	// User-level stamping must be visibly noisier than driver-level.
	d, err := NewHostStamp(DefaultHostStamp(), rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	var sumU, sumD float64
	const n = 20000
	for i := 0; i < n; i++ {
		sumU += h.RecvLag()
		sumD += d.RecvLag()
	}
	if sumU <= 2*sumD {
		t.Errorf("user-level mean lag %v not clearly above driver-level %v",
			sumU/n, sumD/n)
	}
}

func TestEpisodeHitProbValidation(t *testing.T) {
	cfg := basePath()
	cfg.EpisodeHitProb = 1.5
	if _, err := NewPath(cfg, rng.New(1)); err == nil {
		t.Error("EpisodeHitProb > 1 accepted")
	}
	cfg.EpisodeHitProb = -0.1
	if _, err := NewPath(cfg, rng.New(1)); err == nil {
		t.Error("negative EpisodeHitProb accepted")
	}
}

func TestEpisodeLeakThrough(t *testing.T) {
	// During an episode some packets must still get through with only
	// light excess: the property that keeps minimum-filtering viable and
	// prevents false upward-shift detections on long episodes.
	cfg := basePath()
	cfg.EpisodeMeanGap = time10Min
	cfg.EpisodeMeanDuration = timebase.Hour
	cfg.EpisodeHitProb = 0.8
	p, err := NewPath(cfg, rng.New(24))
	if err != nil {
		t.Fatal(err)
	}
	light, inEp := 0, 0
	for i := 0; i < 20000; i++ {
		d := p.Delay(float64(i) * 16)
		if !p.inEpisode {
			continue
		}
		inEp++
		if d-p.MinAt(float64(i)*16) < cfg.EpisodeScale/2 {
			light++
		}
	}
	if inEp == 0 {
		t.Fatal("never in episode")
	}
	frac := float64(light) / float64(inEp)
	if frac < 0.05 {
		t.Errorf("only %.1f%% of in-episode packets leak through lightly", frac*100)
	}
}

const time10Min = 10 * timebase.Minute
