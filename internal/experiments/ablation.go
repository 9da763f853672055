package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timebase"
)

// runAblation quantifies the design choices ARCHITECTURE.md calls out
// by re-running the engine with one mechanism changed at a time. Errors are
// scored against the best-achievable target −Δ(t)/2 (the asymmetry
// ambiguity), so tracking a route change correctly is rewarded rather
// than penalized.
func runAblation(r *Report, opts Options) error {
	dur := timebase.Day

	plain := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, dur, opts.seed()+77)
	shifted := plain
	shifted.Servers = slices.Clone(plain.Servers)
	shifted.Servers[0].Forward.Shifts = []netem.Shift{
		{At: dur / 3, Delta: 0.9 * timebase.Millisecond},
	}
	userStamps := plain
	userStamps.Host = netem.UserLevelHostStamp()

	base := defaultCfg(16)

	// Positions in variants of the rows the checks compare.
	const full, noWeighting, detOff, detOn, userLevel = 0, 2, 4, 5, 6
	variants := []struct {
		name     string
		scenario sim.MultiScenario
		cfg      func() core.Config
	}{
		{"full algorithm", plain, func() core.Config { return base }},
		{"with local rate", plain, func() core.Config {
			c := base
			c.UseLocalRate = true
			return c
		}},
		{"window of 1 (no weighting)", plain, func() core.Config {
			c := base
			c.OffsetWindow = c.PollPeriod
			return c
		}},
		{"no aging", plain, func() core.Config {
			c := base
			c.AgingRate = 0
			return c
		}},
		{"shift detector OFF + route change", shifted, func() core.Config {
			c := base
			c.ShiftThresholdFactor = 1e9
			return c
		}},
		{"shift detector ON + route change", shifted, func() core.Config { return base }},
		{"user-level timestamps", userStamps, func() core.Config {
			c := base
			c.Delta = 50 * timebase.Microsecond
			return c
		}},
	}

	asymAt := func(sc sim.MultiScenario, t float64) float64 {
		minOf := func(cfg netem.PathConfig) float64 {
			m := cfg.MinDelay
			for _, s := range cfg.Shifts {
				if t >= s.At && (s.Duration <= 0 || t < s.At+s.Duration) {
					m += s.Delta
				}
			}
			return math.Max(m, 0)
		}
		return minOf(sc.Servers[0].Forward) - minOf(sc.Servers[0].Backward)
	}

	tab := r.table("variants", "variant", "median_us", "p99_us")
	med, p99 := make([]float64, len(variants)), make([]float64, len(variants))
	for i, v := range variants {
		errs := stats.NewErrFold()
		if _, err := streamRun(v.scenario, v.cfg(), func(e sim.Exchange, res core.Result) {
			if e.TrueTf > timebase.Hour {
				target := -asymAt(v.scenario, e.TrueTf) / 2
				errs.Add(offsetErrOf(res, e) - target)
			}
		}); err != nil {
			return fmt.Errorf("ablation %q: %w", v.name, err)
		}
		s := r.errFigures(v.name, Seconds, errs)
		med[i], p99[i] = s.AbsP50, s.AbsP99
		tab.Append(float64(i), med[i]/1e-6, p99[i]/1e-6)
	}

	r.below("weighted window improves tails: p99 full/window=1", p99[full]/p99[noWeighting], 1, Ratio)
	r.atLeast("shift detector essential under route change: median OFF/ON", med[detOff]/med[detOn], 10, Ratio)
	r.below("user-level stamping works at higher variance: median user/driver-level", med[userLevel]/med[full], 10, Ratio)
	return nil
}
