// Package pps implements the "TSC-GPS" clock of the paper's conclusion:
// the same counter-based clock, calibrated from a locally attached
// pulse-per-second (PPS) reference instead of NTP packets. The RIPE NCC
// test-traffic boxes discipline their software clocks from GPS; the
// paper proposes replacing that SW-GPS arrangement with a TSC-GPS clock
// built on the same filtering principles as the TSC-NTP one:
//
//   - each pulse yields a (counter stamp, true second) pair, where the
//     stamp trails the pulse by a non-negative capture latency
//     (interrupt latency, like NTP receive stamps);
//   - rate comes from minimum-latency pulse pairs with a growing
//     baseline, exactly the paper's E*-filtered pair estimator;
//   - offset comes from the minimum residual over a window — latency is
//     one-sided, so the smallest observed residual is the least
//     contaminated, with no path-asymmetry ambiguity at all.
//
// With a ~100 ns reference and µs-scale capture latency, the TSC-GPS
// clock reaches µs-scale offsets — the "GPS-like" target that the
// paper's remote synchronization approaches to within about an order of
// magnitude (examples/tscgps: a 2.3µs median against TSC-NTP's 25.5µs).
package pps

import (
	"fmt"
	"math"

	"repro/internal/netem"
	"repro/internal/oscillator"
	"repro/internal/rng"
)

// Config parameterizes the PPS calibration.
type Config struct {
	// PHatInit is the a-priori counter period (seconds per cycle).
	PHatInit float64
	// Window is the number of recent pulses retained for offset
	// estimation and local minimum tracking. Default 128.
	Window int
	// Warmup is the number of pulses before estimates are trusted.
	// Default 8.
	Warmup int
}

// DefaultConfig returns defaults for a given nominal period.
func DefaultConfig(pHatInit float64) Config {
	return Config{PHatInit: pHatInit, Window: 128, Warmup: 8}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case !(c.PHatInit > 0):
		return fmt.Errorf("pps: PHatInit must be positive")
	case c.Window < 4:
		return fmt.Errorf("pps: Window must be >= 4")
	case c.Warmup < 2:
		return fmt.Errorf("pps: Warmup must be >= 2")
	}
	return nil
}

// pulse is one captured PPS event.
type pulse struct {
	counter uint64
	second  float64
}

// Result reports the calibration state after one pulse.
type Result struct {
	// PHat is the rate estimate (seconds per cycle).
	PHat float64
	// Theta is the offset estimate of the uncorrected clock
	// C(T) = PHat·T + C at the latest pulse.
	Theta float64
	// Residual is this pulse's capture latency proxy (s).
	Residual float64
	// Warmup reports whether estimates are still settling.
	Warmup bool
}

// Sync is the TSC-GPS calibration engine. Not safe for concurrent use.
type Sync struct {
	cfg Config

	first   pulse
	have    bool
	pairJ   pulse
	p       float64
	c       float64
	history []pulse
	count   int
	theta   float64
}

// NewSync constructs an engine.
func NewSync(cfg Config) (*Sync, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sync{cfg: cfg, p: cfg.PHatInit}, nil
}

// Clock returns the uncorrected clock definition C(T) = p·T + c.
func (s *Sync) Clock() (p, c float64) { return s.p, s.c }

// AbsoluteTime reads the offset-corrected clock at a counter value.
func (s *Sync) AbsoluteTime(counter uint64) float64 {
	return float64(counter)*s.p + s.c - s.theta
}

// residual computes the capture-latency proxy of a pulse under the
// current clock: C(stamp) − trueSecond. Latency is non-negative, so the
// minimum residual over a window is the offset estimate.
func (s *Sync) residual(pl pulse) float64 {
	return float64(pl.counter)*s.p + s.c - pl.second
}

// ProcessPulse ingests one captured pulse: the raw counter stamp and the
// true-time second it marks. Pulses must arrive in order; missed pulses
// are simply absent (loss-robust by construction, like the NTP path).
func (s *Sync) ProcessPulse(counter uint64, second float64) (Result, error) {
	if s.have && counter <= s.history[len(s.history)-1].counter {
		return Result{}, fmt.Errorf("pps: pulse out of order")
	}
	pl := pulse{counter: counter, second: second}
	s.count++

	if !s.have {
		s.have = true
		s.first = pl
		s.pairJ = pl
		s.c = second - float64(counter)*s.p // align C at the first pulse
		s.history = append(s.history, pl)
		s.theta = 0
		return Result{PHat: s.p, Theta: 0, Warmup: true}, nil
	}

	// Rate: pair the new pulse against the lowest-residual early pulse
	// (the paper's growing-baseline estimator; with one-sided noise the
	// best far anchor is the minimum-residual one).
	if s.count > 2 {
		best := s.pairJ
		// Re-anchor j to the minimum-residual pulse in the first quarter
		// of everything seen so far (bounded by the retained window).
		q := len(s.history) / 4
		if q < 1 {
			q = 1
		}
		for _, cand := range s.history[:q] {
			if s.residual(cand) < s.residual(best) {
				best = cand
			}
		}
		s.pairJ = best
	}
	if pl.counter > s.pairJ.counter && pl.second > s.pairJ.second {
		pNew := (pl.second - s.pairJ.second) / float64(pl.counter-s.pairJ.counter)
		if pNew > 0 && !math.IsInf(pNew, 0) {
			// Clock continuity on rate update, as in the NTP engine.
			s.c += float64(pl.counter) * (s.p - pNew)
			s.p = pNew
		}
	}

	s.history = append(s.history, pl)
	if len(s.history) > s.cfg.Window {
		s.history = append(s.history[:0:0], s.history[len(s.history)-s.cfg.Window:]...)
	}

	// Offset: minimum residual over the window.
	minRes := math.Inf(1)
	for _, h := range s.history {
		if r := s.residual(h); r < minRes {
			minRes = r
		}
	}
	s.theta = minRes

	return Result{
		PHat:     s.p,
		Theta:    s.theta,
		Residual: s.residual(pl),
		Warmup:   s.count <= s.cfg.Warmup,
	}, nil
}

// Source models a GPS-disciplined PPS reference as captured by the host:
// the receiver emits a pulse at each true second with ~100 ns jitter,
// and the host stamps it with its counter after an interrupt latency
// drawn from the same end-system model as NTP receive stamps.
type Source struct {
	osc    *oscillator.Oscillator
	host   *netem.HostStamp
	src    *rng.Source
	jitter float64
	next   int
}

// NewSource builds a pulse source on an oscillator realization.
func NewSource(osc *oscillator.Oscillator, hostCfg netem.HostStampConfig, jitter float64, seed uint64) (*Source, error) {
	r := rng.New(seed)
	host, err := netem.NewHostStamp(hostCfg, r.Split())
	if err != nil {
		return nil, err
	}
	return &Source{osc: osc, host: host, src: r, jitter: jitter, next: 1}, nil
}

// Pulse returns the next pulse: the true second it marks and the host
// counter stamp that captured it.
func (g *Source) Pulse() (counter uint64, second float64) {
	second = float64(g.next)
	g.next++
	at := second + g.src.Normal(0, g.jitter)
	if at < 0 {
		at = 0
	}
	return g.osc.ReadTSC(at + g.host.RecvLag()), second
}
