package core

// Golden digests of the engine, the way internal/sim/digest_test.go pins
// the generator: a sha256 over every field of every Result, the
// ObserveIdentity verdict and the Readout published after it, packet by
// packet (%v prints each float as the shortest decimal that parses back
// to its bits), on traces that each assert the path they exist for.
// There is no update flag: a change that means to move the bits edits
// the constants and says why; any other change leaves them as they are.

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"repro/internal/netem"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/timebase"
)

type engineScenario struct {
	name    string
	sc      sim.Scenario // the trace; zero: rebaseCongestion
	cfg     Config
	identAt int    // from this packet on the server reports a second identity (0: never)
	reaches string // the path (tally key) the trace exists for
	digest  string
}

// rebaseCongestion is 400 clean exchanges with 1.3 ms of congestion over
// packets 101–160, right after a server change at packet 100.
func rebaseCongestion() []Input {
	src, counter, serverT := rng.New(77), uint64(1000), 0.0
	var ins []Input
	for i := range 400 {
		counter += uint64(16 / 2e-9)
		serverT += 16
		rtt := 300e-6 + src.Exponential(20e-6)
		if i > 100 && i <= 160 {
			rtt += 1.3e-3
		}
		ins = append(ins, Input{Ta: counter, Tf: counter + uint64(rtt/2e-9), Tb: serverT + rtt/3, Te: serverT + rtt/3 + 20e-6})
		counter = ins[i].Tf
	}
	return ins
}

func TestEngineGoldenDigests(t *testing.T) {
	mr := func(days float64, seed uint64) sim.Scenario {
		return sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, days*timebase.Day, seed)
	}
	shifted := func(seed uint64) sim.Scenario {
		sc := mr(1, seed)
		sc.Server.Forward.Shifts = []netem.Shift{{At: 8 * timebase.Hour, Delta: 0.9 * timebase.Millisecond}}
		return sc
	}
	faulty := mr(1, 1004)
	faulty.Server.Server.Faults = []netem.FaultWindow{
		{From: 6 * timebase.Hour, To: 6*timebase.Hour + 20*timebase.Minute, Offset: 150 * timebase.Millisecond},
	}
	// After this outage the first packet is 391 µs congested, past E**:
	// the gapped fallback blends it in, and it outweighs the aged estimate.
	outage := mr(1, 1111)
	outage.Gaps = []sim.Gap{{From: 8 * timebase.Hour, To: 16 * timebase.Hour}}
	lossy := mr(1, 1006)
	lossy.LossProb = 0.3

	// small slides the top window every 800 packets; its shift window
	// spans the whole local-rate window, so a shift revision rebuilds
	// the local-rate trackers.
	small := defaultCfg()
	small.TopWindow, small.ShiftWindow, small.LocalRateWindow, small.OffsetWindow = 1600*16, 800*16, 5000, 1000
	smallLocal := small
	smallLocal.UseLocalRate = true
	// tiny keeps the shift window T_s at 32 packets.
	tiny := defaultCfg()
	tiny.TopWindow, tiny.ShiftWindow, tiny.OffsetWindow, tiny.LocalRateWindow, tiny.WarmupSamples = 256*16, 32*16, 16*16, 64*16, 8

	for _, sc := range []engineScenario{
		{"machineroom-serverint-default", mr(2, 1001), defaultCfg(), 0, "rate", "656d57fb1e0dd0f965cb7ec4ac4100446ffc62a325171822d135d00e44a77017"},
		{"small-topwindow-slides", mr(2, 1002), small, 0, "slide", "8092c75ed7cf8d03c29d891655e9b76eac62d5b9750a6bb73abf83e77c16cc46"},
		{"upward-shift", shifted(1003), small, 0, "shift", "d6d359c9376ec94bafcd08d5e78ca6d84f1a79c6fbe9ce4d55540808c38c95d0"},
		{"server-fault-localrate", faulty, smallLocal, 0, "poor-or-sanity", "d884d9b8de0abc5b29a64d93baca25ecf39b9ed05bb84ffd1f5bb411c8b2704e"},
		{"upward-shift-localrate", shifted(1008), smallLocal, 0, "shift", "4afb13569eaee2dce9b9cba901ededd5777c6c649536ed50efbcb325a2633b79"},
		{"identity-rebase-localrate", mr(1, 1009), smallLocal, 2000, "rebase", "dedf45129616c2b7bb57e17a798b2c918e65d459b6ef15791181d5dba04e48bb"},
		{"outage-gap", outage, defaultCfg(), 0, "gapped", "ff6b7044ebd42366a07f58309484bf6e4f896e480467c44d0495e73821461bca"},
		{"high-loss", lossy, small, 0, "lost", "edd3cce09e3884743dd16986ec2e49c78b70d81e10d2c73281fe85d352e9566b"},
		{"identity-rebase", mr(1, 1007), small, 2000, "rebase", "58c93b60f33f4b935de25d5883cabbdb25ea4c10ab76fc689864dd30a974b570"},
		// The congestion right after the re-base may not read as an upward
		// shift until the shift window has rolled past the re-base point:
		// once, at packet 100 + T_s, not T_s − 1 packets early (which is
		// what evicting the r̂ deque at the re-base would do).
		{"identity-rebase-congestion", sim.Scenario{}, tiny, 100, "rebase", "5ac82ed6a3b76c6c553b08f53bbbb7f709c024a9b7950081c2563a7e70b942ae"},
	} {
		t.Run(sc.name, func(t *testing.T) {
			ins := rebaseCongestion()
			if sc.sc.PollPeriod > 0 {
				tr, err := sim.Generate(sc.sc)
				if err != nil {
					t.Fatal(err)
				}
				ins = ins[:0]
				for _, ex := range tr.Completed() {
					ins = append(ins, Input{Ta: ex.Ta, Tf: ex.Tf, Tb: ex.Tb, Te: ex.Te})
				}
			}
			s, err := NewSync(sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h, tally, shifts := sha256.New(), map[string]int{}, []int(nil)
			for k, in := range ins {
				histLen, theta := s.hist.Len(), s.theta
				res, err := s.Process(in)
				if err != nil {
					t.Fatalf("packet %d: %v", k, err)
				}
				checkReadoutIsResult(t, k, s.Readout(), res, in, sc.cfg, in.Tf+uint64(8/res.PHat))
				id := Identity{RefID: 0xC0A80101, Stratum: 1}
				if sc.identAt > 0 && k >= sc.identAt {
					id = Identity{RefID: 0xC0A80202, Stratum: 2}
				}
				rebased := s.ObserveIdentity(id)
				fmt.Fprintf(h, "%v %v %v\n", res, rebased, *s.Readout())

				var gap float64
				if k > 0 {
					gap = float64(in.Tf-ins[k-1].Tf) * res.ClockP
				}
				for path, took := range map[string]bool{
					"rate":           res.RateUpdated && !res.Warmup,
					"slide":          s.hist.Len() < histLen,
					"shift":          res.UpwardShiftDetected,
					"poor-or-sanity": res.PoorQuality || res.OffsetSanityTriggered,
					"gapped":         res.PoorQuality && gap > sc.cfg.LocalRateWindow/2 && res.ThetaHat != theta && !res.OffsetSanityTriggered,
					"lost":           gap > 1.5*sc.cfg.PollPeriod,
					"rebase":         rebased,
				} {
					tally[path] += btoi(took)
				}
				if res.UpwardShiftDetected {
					shifts = append(shifts, k)
				}
			}
			if tally[sc.reaches] == 0 {
				t.Errorf("the trace never takes the %s path (%d packets, tally %v)", sc.reaches, len(ins), tally)
			}
			if sc.name == "identity-rebase-congestion" && !slices.Equal(shifts, []int{132}) {
				t.Errorf("upward shifts detected at packets %v, want [132] only", shifts)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != sc.digest {
				t.Errorf("digest %s, golden %s", got, sc.digest)
			}
		})
	}
}
