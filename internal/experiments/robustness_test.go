package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timebase"
)

// settledRun pushes a one-day scenario through the engine harness and
// returns the offset errors after the settling time, the final rate
// estimate and the stream (for the oracle rate).
func settledRun(t *testing.T, sc sim.MultiScenario, settle float64) (errs []float64, pHat float64, st *sim.MultiStream) {
	t.Helper()
	st, err := streamRun(sc, defaultCfg(sc.PollPeriod), func(e sim.Exchange, res core.Result) {
		if e.TrueTf > settle {
			errs = append(errs, offsetErrOf(res, e))
		}
		pHat = res.PHat
	})
	if err != nil {
		t.Fatal(err)
	}
	return errs, pHat, st
}

// TestSeedRobustness verifies the headline accuracy claim is not an
// artifact of one random realization: across independent seeds, the
// median offset error stays in the tens-of-µs band and the rate estimate
// within the hardware bound.
func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range []uint64{3, 1009, 77777, 424243, 998877} {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, seed)
			settled, pHat, st := settledRun(t, sc, timebase.Hour)
			s := stats.NewSorted(settled)
			if med := s.Median(); med < -100e-6 || med > 10e-6 {
				t.Errorf("seed %d: median offset error %v outside the band", seed, med)
			}
			if iqr := s.IQR(); iqr > 80e-6 {
				t.Errorf("seed %d: IQR %v", seed, iqr)
			}
			if e := math.Abs(pHat/st.Osc().MeanPeriod() - 1); e > timebase.FromPPM(0.1) {
				t.Errorf("seed %d: rate error %v PPM", seed, timebase.PPM(e))
			}
		})
	}
}

// TestEnvironmentRobustness runs the engine across all six
// environment-server combinations on one seed and requires calibrated
// operation everywhere (medians bounded by each path's asymmetry plus a
// noise allowance).
func TestEnvironmentRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("environment sweep")
	}
	for _, env := range []sim.Environment{sim.Laboratory, sim.MachineRoom} {
		for _, spec := range []sim.ServerSpec{sim.ServerLoc(), sim.ServerInt(), sim.ServerExt()} {
			env, spec := env, spec
			t.Run(env.String()+"-"+spec.Name, func(t *testing.T) {
				t.Parallel()
				sc := sim.NewScenario(env, spec, 64, timebase.Day, 55)
				settled, _, _ := settledRun(t, sc, 2*timebase.Hour)
				med := stats.NewSorted(settled).Median()
				bound := spec.Asymmetry()/2 + 60e-6
				if math.Abs(med) > bound {
					t.Errorf("median %v exceeds asymmetry+noise bound %v", med, bound)
				}
			})
		}
	}
}
