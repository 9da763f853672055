package sim

import (
	"testing"

	"repro/internal/timebase"
)

// TestCorrectedStampOrdering: the corrected receive stamp removes only
// the detectable excess latency, so TfCorr is never after Tf and never
// before the true arrival.
func TestCorrectedStampOrdering(t *testing.T) {
	exs, truths, st := streamCompleted(t, shortScenario(91))
	osc := st.Osc()
	p := osc.MeanPeriod()
	excursions := 0
	for i, e := range exs {
		tfCorr := truths[i].TfCorr
		if tfCorr > e.Tf {
			t.Fatalf("corrected stamp %d after raw stamp %d", tfCorr, e.Tf)
		}
		if tfCorr < e.Tf {
			excursions++
		}
		// The corrected stamp still trails the true arrival by the base
		// interrupt latency: a few µs, never more than ~20 µs.
		lag := timebase.CounterSpan(osc.ReadTSC(e.TrueTf), tfCorr, p)
		if lag < -1e-9 || lag > 20*timebase.Microsecond {
			t.Fatalf("corrected stamp lag %v outside the base mode", lag)
		}
	}
	if excursions == 0 {
		t.Error("no correctable excursions in the whole trace")
	}
}

// TestCorrectedStampReducesNoise: the detrended offset series built from
// corrected stamps must have a smaller spread than from raw stamps
// (the paper's reason for the correction, Section 2.4/Figure 3).
func TestCorrectedStampReducesNoise(t *testing.T) {
	ex, truths, _ := streamCompleted(t, NewScenario(MachineRoom, ServerInt(), 16, 12*timebase.Hour, 92))
	spread := func(corrected bool) float64 {
		stamp := func(i int) uint64 {
			if corrected {
				return truths[i].TfCorr
			}
			return ex[i].Tf
		}
		first, last := ex[0], ex[len(ex)-1]
		pBar := (last.Tg - first.Tg) / float64(stamp(len(ex)-1)-stamp(0))
		var maxDev, minDev float64
		for i, e := range ex {
			th := float64(stamp(i)-stamp(0))*pBar - (e.Tg - first.Tg)
			if th > maxDev {
				maxDev = th
			}
			if th < minDev {
				minDev = th
			}
		}
		return maxDev - minDev
	}
	raw, corr := spread(false), spread(true)
	if corr >= raw {
		t.Errorf("corrected spread %v not below raw %v", corr, raw)
	}
}
