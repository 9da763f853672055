// Package core implements the paper's primary contribution: the robust
// rate and offset synchronization algorithms for the TSC-NTP clock
// (Sections 5 and 6 of Veitch, Babu & Pásztor, IMC 2004).
//
// The engine consumes, packet by packet, the raw four-tuple of an NTP
// exchange — host counter stamps Ta, Tf and server stamps Tb, Te — and
// maintains:
//
//   - p̂(t), the robust global rate estimate (period of one counter cycle)
//     built from low point-error packet pairs with an ever-growing
//     baseline, bounded error 2E*/Δ(t);
//   - p̂_l(t), the quasi-local rate over a τ̄ = 5τ* window, quality-gated
//     and sanity-checked against the 0.1 PPM hardware bound;
//   - θ̂(t), the offset of the uncorrected clock C(t) = p̂·TSC + C,
//     estimated by a quality-weighted window of per-packet naive
//     estimates, with aging, poor-quality fallback, and a 1 ms sanity
//     check;
//   - r̂(t) and r̂_l(t), global and windowed minimum RTT trackers that
//     drive the point-error filter and the level-shift detector.
//
// Everything is calibrated in units of the host timestamping error
// δ = 15 µs and grounded in the two hardware constants the paper
// measures: the SKM scale τ* ≈ 1000 s and the 0.1 PPM stability bound.
//
//repro:deterministic
package core

import (
	"fmt"

	"repro/internal/timebase"
)

// TauStar is τ*, the SKM scale in seconds: the largest time scale over
// which the simple skew model holds. Paper value: 1000 s. The windows
// of DefaultConfig are multiples of it, and so are the sensitivity
// sweeps' (internal/experiments).
const TauStar = 1000.0

// Config carries the parameters of the synchronization algorithms that
// some caller sets to a value of its own: the clock and polling inputs,
// and what the paper's sensitivity studies vary (δ, E*, E, τ′, the
// windows, ε, the shift threshold). The zero value is not usable; start
// from DefaultConfig. The method's fixed values — τ*, W, γ*, the rate
// sanity bound, E**/E, E_s, the hardware rate bound and the warmup
// inflation of E — are constants beside the code that reads them.
type Config struct {
	// PHatInit is the a-priori counter period (seconds per cycle), e.g.
	// the nominal value from the CPU specification. Its error (typically
	// tens of PPM) only matters during the first few packets.
	PHatInit float64

	// PollPeriod is the nominal NTP polling period in seconds. Windows
	// are nominally time intervals but, following Section 6.1 ("Lost
	// Packets"), are maintained as fixed packet counts derived from it.
	PollPeriod float64

	// Delta is δ, the maximum host timestamping error; the unit in which
	// all quality thresholds are calibrated. Paper value: 15 µs.
	Delta float64

	// EStarFactor sets E* = EStarFactor·δ, the point-error acceptance
	// threshold for global rate pairs. Paper explores 20 and 5.
	EStarFactor float64

	// UseLocalRate enables the quasi-local rate refinement p̂_l and its
	// use in offset linear prediction (equations 21/23).
	UseLocalRate bool
	// LocalRateWindow is τ̄, the effective width of the local rate
	// estimation window. Paper value: 5τ*.
	LocalRateWindow float64

	// OffsetWindow is τ′, the SKM-related window of past packets used in
	// the weighted offset estimate. Paper default: τ* (sensitivity
	// explored over [τ*/16, 4τ*]).
	OffsetWindow float64
	// EFactor sets E = EFactor·δ, the width of the quality weighting
	// w_i = exp(−(E_i^T/E)²). Paper value: 4.
	EFactor float64
	// AgingRate is ε, the residual-rate error used to age point errors:
	// E_i^T = E_i + ε·age. Paper value: 0.02 PPM.
	AgingRate float64

	// TopWindow is T, the top-level sliding history window, updated in
	// half-window steps. Paper value: 1 week.
	TopWindow float64

	// WarmupSamples is T_w, the number of packets during which point
	// errors are not yet trusted: the rate estimator runs its growing
	// near/far scheme and the offset quality width is inflated.
	WarmupSamples int

	// ShiftWindow is T_s, the width of the local minimum window used for
	// upward level-shift detection. Paper value: τ̄/2.
	ShiftWindow float64
	// ShiftThresholdFactor: an upward shift is declared when
	// r̂_l − r̂ > ShiftThresholdFactor·E. Paper value: 4.
	ShiftThresholdFactor float64
}

// DefaultConfig returns the paper's parameter set for a given counter
// period estimate and polling period.
func DefaultConfig(pHatInit, poll float64) Config {
	tauBar := 5 * TauStar
	return Config{
		PHatInit:             pHatInit,
		PollPeriod:           poll,
		Delta:                15 * timebase.Microsecond,
		EStarFactor:          20,
		UseLocalRate:         false,
		LocalRateWindow:      tauBar,
		OffsetWindow:         TauStar,
		EFactor:              4,
		AgingRate:            timebase.FromPPM(0.02),
		TopWindow:            timebase.Week,
		WarmupSamples:        32,
		ShiftWindow:          tauBar / 2,
		ShiftThresholdFactor: 4,
	}
}

// EStar returns the rate acceptance threshold E* in seconds.
func (c Config) EStar() float64 { return c.EStarFactor * c.Delta }

// E returns the offset quality width E in seconds.
func (c Config) E() float64 { return c.EFactor * c.Delta }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case !(c.PHatInit > 0):
		return fmt.Errorf("core: PHatInit must be positive")
	case !(c.PollPeriod > 0):
		return fmt.Errorf("core: PollPeriod must be positive")
	case !(c.Delta > 0):
		return fmt.Errorf("core: Delta must be positive")
	case !(c.EStarFactor > 0):
		return fmt.Errorf("core: EStarFactor must be positive")
	case c.UseLocalRate && !(c.LocalRateWindow > 0):
		return fmt.Errorf("core: LocalRateWindow must be positive")
	case !(c.OffsetWindow > 0):
		return fmt.Errorf("core: OffsetWindow must be positive")
	case !(c.EFactor > 0):
		return fmt.Errorf("core: EFactor must be positive")
	case c.AgingRate < 0:
		return fmt.Errorf("core: AgingRate must be non-negative")
	case !(c.TopWindow > 0):
		return fmt.Errorf("core: TopWindow must be positive")
	case c.WarmupSamples < 2:
		return fmt.Errorf("core: WarmupSamples must be >= 2")
	case !(c.ShiftWindow > 0):
		return fmt.Errorf("core: ShiftWindow must be positive")
	case !(c.ShiftThresholdFactor > 0):
		return fmt.Errorf("core: ShiftThresholdFactor must be positive")
	}
	// Window consistency: the top window must dominate all others.
	if c.TopWindow < 2*c.ShiftWindow || c.TopWindow < 2*c.LocalRateWindow || c.TopWindow < 2*c.OffsetWindow {
		return fmt.Errorf("core: TopWindow must be at least twice every sub-window")
	}
	return nil
}

// packets converts a nominal window duration into a packet count,
// clamped to at least 1 (Section 6.1: windows are maintained as fixed
// numbers of packets computed from the polling period).
func (c Config) packets(window float64) int {
	n := int(window/c.PollPeriod + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}
