package core

import (
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// scanLocalMinima is the direct O(window) implementation the argmin
// trackers replaced: the oldest record of minimal point error in the
// far sub-window [n−nLocalWin, n−nLocalWin+nLocalFar) and in the near
// sub-window [n−nLocalNear, n) of the scan window. Kept test-only as the
// equivalence oracle for pushLocalMinima/rebuildLocalMinima.
func (s *Sync) scanLocalMinima() (jSeq, iSeq int) {
	n := s.scan.Len()
	frontSeq := s.hist.Back().seq - n + 1
	bestOf := func(i, j int) int {
		best := i
		for idx := i + 1; idx < j; idx++ {
			if s.scan.At(idx).pointErr < s.scan.At(best).pointErr {
				best = idx
			}
		}
		return frontSeq + best
	}
	winStart := n - s.nLocalWin
	return bestOf(winStart, winStart+s.nLocalFar), bestOf(n-s.nLocalNear, n)
}

// TestLocalRateMinimaEquivalence drives the engine over traces that hit
// every revision path — upward level shifts, server identity re-bases,
// top-window slides — and asserts after every packet that the argmin
// trackers select exactly the records the direct sub-window scans
// would, including tie resolution (point-error ties at 0 are common:
// every record arriving at the current minimum RTT has one).
func TestLocalRateMinimaEquivalence(t *testing.T) {
	scenarios := []struct {
		name    string
		mutate  func(*sim.MultiScenario)
		identAt int
	}{
		{name: "steady"},
		{
			name: "upward-shift",
			mutate: func(sc *sim.MultiScenario) {
				sc.Servers[0].Forward.Shifts = []netem.Shift{
					{At: 6 * timebase.Hour, Delta: 0.9 * timebase.Millisecond},
					{At: 14 * timebase.Hour, Delta: 1.3 * timebase.Millisecond},
				}
			},
		},
		{name: "identity-rebase", identAt: 1500},
		{
			name: "loss-and-gap",
			mutate: func(sc *sim.MultiScenario) {
				sc.LossProb = 0.2
				sc.Gaps = []sim.Gap{{From: 10 * timebase.Hour, To: 11 * timebase.Hour}}
			},
		},
	}

	for _, v := range scenarios {
		t.Run(v.name, func(t *testing.T) {
			sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 77)
			if v.mutate != nil {
				v.mutate(&sc)
			}
			tr, err := sim.Generate(sc)
			if err != nil {
				t.Fatal(err)
			}

			cfg := DefaultConfig(1.0/548655270, 16)
			cfg.UseLocalRate = true
			// Small windows force frequent slides and wide shift revisions.
			cfg.TopWindow = 1600 * 16
			cfg.ShiftWindow = 800 * 16
			cfg.LocalRateWindow = 5000
			s, err := NewSync(cfg)
			if err != nil {
				t.Fatal(err)
			}

			active := 0
			for k, ex := range tr.Completed() {
				if _, err := s.Process(Input{Ta: ex.Ta, Tf: ex.Tf, Tb: ex.Tb, Te: ex.Te}); err != nil {
					t.Fatalf("packet %d: %v", k, err)
				}
				if v.identAt > 0 {
					id := Identity{RefID: 0xC0A80101, Stratum: 1}
					if k >= v.identAt {
						id = Identity{RefID: 0xC0A80202, Stratum: 1}
					}
					s.ObserveIdentity(id)
				}
				if s.count <= s.nWarm+s.nLocalWin || s.hist.Len() < s.nLocalWin {
					continue
				}
				active++
				wantJ, wantI := s.scanLocalMinima()
				gotJ, okJ := s.farMin.MinSeq()
				gotI, okI := s.nearMin.MinSeq()
				if !okJ || !okI {
					t.Fatalf("packet %d: tracker empty (far ok=%v, near ok=%v)", k, okJ, okI)
				}
				if gotJ != wantJ || gotI != wantI {
					t.Fatalf("packet %d: tracker picked (far %d, near %d), scan picked (far %d, near %d)",
						k, gotJ, gotI, wantJ, wantI)
				}
			}
			if active < 100 {
				t.Fatalf("only %d active local-rate packets; test lost its teeth", active)
			}
		})
	}
}
