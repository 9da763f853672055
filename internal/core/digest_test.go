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
	sc      sim.MultiScenario // the trace; zero: synthetic[name]
	cfg     Config
	identAt int    // from this packet on the server reports a second identity (0: never)
	reaches string // the path (tally key) the trace exists for
	digest  string
}

// pathTrace is n exchanges 16 s apart through a path whose RTT at
// packet k is rtt(k); the server's stamps sit a third of the way in.
func pathTrace(n int, rtt func(k int) float64) []Input {
	counter, serverT := uint64(1000), 0.0
	ins := make([]Input, n)
	for k := range ins {
		counter += uint64(16 / 2e-9)
		serverT += 16
		r := rtt(k)
		ins[k] = Input{Ta: counter, Tf: counter + uint64(r/2e-9), Tb: serverT + r/3, Te: serverT + r/3 + 20e-6}
		counter = ins[k].Tf
	}
	return ins
}

// rebaseCongestion is 400 clean exchanges with 1.3 ms of congestion over
// packets 101–160, right after a server change at packet 100.
func rebaseCongestion() []Input {
	src := rng.New(77)
	return pathTrace(400, func(k int) float64 {
		r := 300e-6 + src.Exponential(20e-6)
		if k > 100 && k <= 160 {
			r += 1.3e-3
		}
		return r
	})
}

// downwardStep drops the path's RTT by 0.7 ms, far more than E*, at
// packet 127, the one that slides the top window: i moves to it, and no
// retained packet older than i is within E* of the new r̂, so the slide
// replaces j with the one of least point error.
func downwardStep() []Input {
	src := rng.New(78)
	return pathTrace(300, func(k int) float64 {
		r := 300e-6 + src.Exponential(20e-6)
		if k < 127 {
			r += 0.7e-3
		}
		return r
	})
}

// shrinkingDelay is an upstream whose reply delay falls by 2 µs every
// poll, so every packet is a new minimum RTT.
func shrinkingDelay() []Input {
	return pathTrace(600, func(k int) float64 { return 3e-3 - float64(k)*2e-6 })
}

func TestEngineGoldenDigests(t *testing.T) {
	mr := func(days float64, seed uint64) sim.MultiScenario {
		return sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, days*timebase.Day, seed)
	}
	shifted := func(seed uint64) sim.MultiScenario {
		sc := mr(1, seed)
		sc.Servers[0].Forward.Shifts = []netem.Shift{{At: 8 * timebase.Hour, Delta: 0.9 * timebase.Millisecond}}
		return sc
	}
	faulty := mr(1, 1004)
	faulty.Servers[0].Server.Faults = []netem.FaultWindow{
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
	// odd slides by 400 packets and keeps 401: the halves are unequal.
	odd := small
	odd.TopWindow, odd.ShiftWindow, odd.UseLocalRate = 801*16, 400*16, true
	// slide64 slides every 32 packets.
	slide64 := tiny
	slide64.TopWindow, slide64.ShiftWindow, slide64.OffsetWindow, slide64.LocalRateWindow = 64*16, 16*16, 8*16, 16*16
	// exact starts at the traces' nominal counter period, so the shrinking
	// delay is never masked by the rate's convergence.
	exact := tiny
	exact.PHatInit = 2e-9
	synthetic := map[string][]Input{
		"identity-rebase-congestion": rebaseCongestion(),
		"slide-minerr-fallback":      downwardStep(),
		"every-packet-new-minimum":   shrinkingDelay(),
	}

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
		{"identity-rebase-congestion", sim.MultiScenario{}, tiny, 100, "rebase", "5ac82ed6a3b76c6c553b08f53bbbb7f709c024a9b7950081c2563a7e70b942ae"},
		{"odd-topwindow-slides", mr(2, 1010), odd, 0, "slide", "a5c09913468710cf5509c11334933fb83d1f37fa1e4130d8e774d8140517e225"},
		{"slide-minerr-fallback", sim.MultiScenario{}, slide64, 0, "fallback", "90c20247dc375b552b0ad74b0264d8b396758c34f2ac745d4f1d7301a380bd29"},
		{"every-packet-new-minimum", sim.MultiScenario{}, exact, 0, "new-minimum", "17b66f84dcf1ade327d6c2244bb2c4973d9587606ef188489f633ac0e3799644"},
	} {
		t.Run(sc.name, func(t *testing.T) {
			ins := synthetic[sc.name]
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
				front, theta, rHat, pairJ := s.front, s.theta, s.rHat, s.pairJ.seq
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

				slid := s.front > front
				var gap float64
				if k > 0 {
					gap = float64(in.Tf-ins[k-1].Tf) * res.ClockP
				}
				for path, took := range map[string]bool{
					"rate":           res.RateUpdated && !res.Warmup,
					"slide":          slid,
					"fallback":       slid && s.pairJ.seq != pairJ && s.pairJ.rtt-s.rHat > sc.cfg.EStar(),
					"new-minimum":    res.RTT < rHat,
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
			switch {
			case sc.name == "odd-topwindow-slides" && tally["slide"] < 20:
				t.Errorf("%d slides, want at least 20", tally["slide"])
			case sc.name == "every-packet-new-minimum" && (tally["new-minimum"] != len(ins) || tally["slide"] < 2):
				t.Errorf("%d of %d packets set a new minimum over %d slides, want all over at least 2", tally["new-minimum"], len(ins), tally["slide"])
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != sc.digest {
				t.Errorf("digest %s, golden %s", got, sc.digest)
			}
		})
	}
}
