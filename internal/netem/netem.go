// Package netem models the network and end-system effects that corrupt
// the timestamps the synchronization algorithms consume. It implements
// the paper's decomposition (equations 12-15): every delay is a
// deterministic minimum plus a positive random component,
//
//	d>(i) = d> + q>(i)   (forward path)
//	d^(i) = d^ + q^(i)   (server)
//	d<(i) = d< + q<(i)   (backward path)
//
// with queueing produced by a diurnally-modulated light-load process plus
// Markov-modulated congestion episodes with heavy-tailed (Pareto) excess
// delays. Minimum delays can change over time through level shifts (route
// changes), the central robustness challenge of the paper's Section 6.2.
//
// The package also models the paper's measured end-system noise: host
// driver timestamping (~5 µs mode with +10/+31 µs interrupt-latency side
// modes and rare >1 ms scheduling errors), and stratum-1 server
// timestamping errors including the rare ~1 ms Te outliers and injectable
// server clock faults (the 150 ms error event of Figure 11b).
//
//repro:deterministic
package netem

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/timebase"
)

// Shift is a level shift of a path's minimum delay: at time At the
// minimum changes by Delta; if Duration > 0 the shift is temporary and
// reverts at At+Duration, otherwise it is permanent.
type Shift struct {
	At       float64
	Delta    float64
	Duration float64
}

// PathConfig parameterizes one direction of a network path.
type PathConfig struct {
	// MinDelay is the deterministic minimum one-way delay (propagation
	// plus minimum switching), in seconds.
	MinDelay float64

	// Hops is the reported IP hop count (Table 2); it scales nothing by
	// itself but is carried for reporting.
	Hops int

	// BaseQueueMean is the mean of the light-load exponential queueing
	// component at unit utilization.
	BaseQueueMean float64

	// DiurnalAmplitude in [0,1) modulates load over the day; the mean
	// queueing and the episode rate scale by
	// 1 + DiurnalAmplitude*cos(2*pi*(t-DiurnalPeak)/day).
	DiurnalAmplitude float64
	DiurnalPeak      float64

	// Congestion episodes arrive with exponential gaps of mean
	// EpisodeMeanGap (at unit utilization) and last an exponential
	// duration of mean EpisodeMeanDuration. During an episode a packet
	// gains a Pareto(EpisodeScale*severity, EpisodeShape) excess with
	// probability EpisodeHitProb (severity is a per-episode log-normal);
	// otherwise only a lighter exponential excess — queues drain between
	// packets, so even heavy episodes let occasional packets through
	// nearly clean, which is what keeps minimum-based filtering viable.
	EpisodeMeanGap      float64
	EpisodeMeanDuration float64
	EpisodeScale        float64
	EpisodeShape        float64
	// EpisodeHitProb defaults to 0.8 when EpisodeScale > 0 and the
	// field is zero.
	EpisodeHitProb float64

	// Regime switching models week-scale load regimes on top of the
	// diurnal cycle: the path dwells in one regime for an exponential
	// time of mean RegimeMeanDwell (days-scale for the long-horizon
	// scenarios), then jumps uniformly to another entry of
	// RegimeFactors. The factor in force multiplies the utilization —
	// scaling both the light-load queueing mean and the congestion
	// episode rate — so a multi-week trace alternates quiet and busy
	// spells instead of repeating one stationary day. Zero
	// RegimeMeanDwell (the default) disables the process entirely and
	// consumes no random draws, keeping existing scenarios bit-identical.
	RegimeMeanDwell float64
	RegimeFactors   []float64

	// Shifts is the level-shift schedule for this direction.
	Shifts []Shift
}

// Validate reports configuration errors.
func (c PathConfig) Validate() error {
	if c.MinDelay < 0 {
		return fmt.Errorf("netem: negative MinDelay %v", c.MinDelay)
	}
	if c.BaseQueueMean < 0 {
		return fmt.Errorf("netem: negative BaseQueueMean %v", c.BaseQueueMean)
	}
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 {
		return fmt.Errorf("netem: DiurnalAmplitude %v outside [0,1)", c.DiurnalAmplitude)
	}
	if c.EpisodeScale > 0 {
		if !(c.EpisodeMeanGap > 0) || !(c.EpisodeMeanDuration > 0) {
			return fmt.Errorf("netem: episodes need positive gap and duration")
		}
		if !(c.EpisodeShape > 0) {
			return fmt.Errorf("netem: EpisodeShape must be positive")
		}
	}
	if c.EpisodeHitProb < 0 || c.EpisodeHitProb > 1 {
		return fmt.Errorf("netem: EpisodeHitProb %v outside [0,1]", c.EpisodeHitProb)
	}
	if c.RegimeMeanDwell < 0 {
		return fmt.Errorf("netem: negative RegimeMeanDwell %v", c.RegimeMeanDwell)
	}
	if c.RegimeMeanDwell > 0 {
		if len(c.RegimeFactors) < 2 {
			return fmt.Errorf("netem: regime switching needs at least 2 RegimeFactors")
		}
		for i, f := range c.RegimeFactors {
			if !(f > 0) {
				return fmt.Errorf("netem: RegimeFactors[%d] = %v must be positive", i, f)
			}
		}
	}
	return nil
}

// Path is a stateful realization of one path direction. Delay queries
// must be issued in non-decreasing time order (the congestion episode
// process is sequential); MinAt is pure and may be called at any time.
type Path struct {
	cfg PathConfig
	src *rng.Source

	lastT     float64
	inEpisode bool
	epEnd     float64
	nextStart float64
	severity  float64

	// Load-regime process state (see PathConfig.RegimeMeanDwell).
	regime    int
	regimeEnd float64
}

// NewPath constructs a path from its config and a dedicated random
// stream.
func NewPath(cfg PathConfig, src *rng.Source) (*Path, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Path{cfg: cfg, src: src, lastT: math.Inf(-1)}
	if cfg.EpisodeScale > 0 {
		p.nextStart = src.Exponential(cfg.EpisodeMeanGap)
	} else {
		p.nextStart = math.Inf(1)
	}
	if cfg.RegimeMeanDwell > 0 {
		p.regimeEnd = src.Exponential(cfg.RegimeMeanDwell)
	} else {
		p.regimeEnd = math.Inf(1)
	}
	return p, nil
}

// utilization returns the load factor at t: the diurnal cycle scaled by
// the regime factor in force. The regime process is advanced by
// advance(); episode catch-up queries during a regime boundary crossing
// use the newly entered regime's factor, an approximation that is
// invisible at days-scale dwell times.
func (p *Path) utilization(t float64) float64 {
	u := 1.0
	if p.cfg.DiurnalAmplitude != 0 {
		u += float64(p.cfg.DiurnalAmplitude * math.Cos(2*math.Pi*(t-p.cfg.DiurnalPeak)/timebase.Day))
	}
	if p.cfg.RegimeMeanDwell > 0 {
		u *= p.cfg.RegimeFactors[p.regime]
	}
	return u
}

// MinAt returns the minimum delay in force at time t, including all level
// shifts scheduled at or before t.
func (p *Path) MinAt(t float64) float64 {
	m := p.cfg.MinDelay
	for _, s := range p.cfg.Shifts {
		if t >= s.At && (s.Duration <= 0 || t < s.At+s.Duration) {
			m += s.Delta
		}
	}
	if m < 0 {
		m = 0
	}
	return m
}

// advance moves the episode process to time t.
func (p *Path) advance(t float64) {
	if t < p.lastT {
		panic(fmt.Sprintf("netem: path queried backwards in time (%v after %v)", t, p.lastT))
	}
	p.lastT = t
	for p.regimeEnd <= t {
		// Jump uniformly to one of the *other* regimes, as documented:
		// re-drawing the current one would silently stretch the
		// effective dwell (2× for two factors).
		next := p.src.Intn(len(p.cfg.RegimeFactors) - 1)
		if next >= p.regime {
			next++
		}
		p.regime = next
		p.regimeEnd += p.src.Exponential(p.cfg.RegimeMeanDwell)
	}
	for {
		if p.inEpisode {
			if t < p.epEnd {
				return
			}
			p.inEpisode = false
			gap := p.cfg.EpisodeMeanGap / p.utilization(p.epEnd)
			p.nextStart = p.epEnd + p.src.Exponential(gap)
		} else {
			if t < p.nextStart {
				return
			}
			p.inEpisode = true
			p.epEnd = p.nextStart + p.src.Exponential(p.cfg.EpisodeMeanDuration)
			p.severity = p.src.LogNormal(0, 0.8)
		}
	}
}

// Delay draws the total one-way delay experienced by a packet entering
// the path at time t: current minimum plus queueing.
func (p *Path) Delay(t float64) float64 {
	p.advance(t)
	q := p.src.Exponential(p.cfg.BaseQueueMean * p.utilization(t))
	if p.inEpisode && p.cfg.EpisodeScale > 0 {
		hit := p.cfg.EpisodeHitProb
		if hit == 0 {
			hit = 0.8
		}
		scale := p.cfg.EpisodeScale * p.severity
		if p.src.Bool(hit) {
			q += p.src.Pareto(scale, p.cfg.EpisodeShape)
		} else {
			q += p.src.Exponential(scale / 4)
		}
	}
	return p.MinAt(t) + q
}
