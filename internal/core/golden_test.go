package core

import (
	"math"
	"testing"

	"repro/internal/netem"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// TestGoldenEquivalence runs the optimized engine and the seed
// reference engine (reference_test.go) over simulated scenarios and
// demands per-packet agreement:
//
//   - PHat, PQuality, RTT, RTTHat, PointError, ThetaNaive and every
//     boolean flag must be bit-identical — the history and scan windows, the minimum
//     deques, and the pair bookkeeping perform the exact same float
//     operations as the seed's scans, just without the rescanning;
//   - ThetaHat may differ by at most 1e-12 (in practice ~1e-16): the
//     only sources of divergence are expNeg vs math.Exp (≤ ~1e-15
//     relative per weight) and the dropped sub-exp(−81) weights beyond
//     the cutoff.
//
// The scenario set exercises every code path whose data layer changed:
// steady state, warmup, top-window slides (small TopWindow), upward
// level shifts, server faults (sanity + poor-quality fallbacks), long
// outage gaps (gapped fallback), packet loss, the local-rate
// refinement, and server identity re-bases.
// TestGoldenIdentityRebaseCongestion pins the subtlest interaction of
// the deque-based minimum tracking: after a server identity re-base,
// the level-shift window still spans pre-rebase packets for the next
// T_s packets, so a congestion burst right after the change must NOT
// trigger an upward-shift detection until the window has fully rolled
// past the re-base point — exactly as the reference's plain window
// scan behaves. (An earlier draft evicted the r̂ deque at the re-base,
// which made the optimized engine fire the detector T_s−1 packets
// early under this trace shape.)
func TestGoldenIdentityRebaseCongestion(t *testing.T) {
	cfg := defaultCfg()
	cfg.TopWindow = 256 * 16
	cfg.ShiftWindow = 32 * 16
	cfg.OffsetWindow = 16 * 16
	cfg.LocalRateWindow = 64 * 16
	cfg.WarmupSamples = 8

	opt, err := NewSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefSync(cfg)
	if err != nil {
		t.Fatal(err)
	}

	src := rng.New(77)
	const p = 2e-9
	counter := uint64(1000)
	serverT := 0.0
	sawShift := false
	for i := 0; i < 400; i++ {
		counter += uint64(16 / p)
		serverT += 16
		rtt := 300e-6 + src.Exponential(20e-6)
		if i > 100 && i <= 160 {
			rtt += 1.3e-3 // sustained congestion right after the re-base
		}
		ta := counter
		tf := ta + uint64(rtt/p)
		in := Input{Ta: ta, Tf: tf, Tb: serverT + rtt/3, Te: serverT + rtt/3 + 20e-6}
		ro, err := opt.Process(in)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := ref.Process(in)
		if err != nil {
			t.Fatal(err)
		}
		counter = tf

		id := Identity{RefID: 1, Stratum: 1}
		if i >= 100 {
			id = Identity{RefID: 2, Stratum: 2}
		}
		if got, want := opt.ObserveIdentity(id), ref.ObserveIdentity(id); got != want {
			t.Fatalf("packet %d: ObserveIdentity %v, reference %v", i, got, want)
		}

		if ro.UpwardShiftDetected != rr.UpwardShiftDetected {
			t.Fatalf("packet %d: UpwardShiftDetected = %v, reference %v",
				i, ro.UpwardShiftDetected, rr.UpwardShiftDetected)
		}
		if ro.RTTHat != rr.RTTHat || ro.PointError != rr.PointError || ro.PHat != rr.PHat {
			t.Fatalf("packet %d: RTTHat/PointError/PHat diverged: (%v,%v,%v) vs (%v,%v,%v)",
				i, ro.RTTHat, ro.PointError, ro.PHat, rr.RTTHat, rr.PointError, rr.PHat)
		}
		if d := math.Abs(ro.ThetaHat - rr.ThetaHat); d > 1e-12 {
			t.Fatalf("packet %d: ThetaHat Δ %g > 1e-12", i, d)
		}
		sawShift = sawShift || rr.UpwardShiftDetected
	}
	if !sawShift {
		t.Fatal("trace never triggered the upward-shift detector; test lost its teeth")
	}
}

func TestGoldenEquivalence(t *testing.T) {
	type variant struct {
		name     string
		scenario func() sim.Scenario
		cfg      func() Config
		identAt  int // ObserveIdentity change at this seq (0 = never)
	}

	smallWindows := func() Config {
		cfg := defaultCfg()
		cfg.TopWindow = 1600 * 16 // nTop = 1600: slides every 800 packets
		cfg.ShiftWindow = 800 * 16
		cfg.LocalRateWindow = 5000
		cfg.OffsetWindow = 1000
		return cfg
	}

	variants := []variant{
		{
			name: "machineroom-serverint-default",
			scenario: func() sim.Scenario {
				return sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, 2*timebase.Day, 1001)
			},
			cfg: defaultCfg,
		},
		{
			name: "small-topwindow-slides",
			scenario: func() sim.Scenario {
				return sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, 2*timebase.Day, 1002)
			},
			cfg: smallWindows,
		},
		{
			name: "upward-shift",
			scenario: func() sim.Scenario {
				sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 1003)
				sc.Server.Forward.Shifts = []netem.Shift{{At: 8 * timebase.Hour, Delta: 0.9 * timebase.Millisecond}}
				return sc
			},
			cfg: smallWindows,
		},
		{
			name: "server-fault-localrate",
			scenario: func() sim.Scenario {
				sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 1004)
				sc.Server.Server.Faults = []netem.FaultWindow{
					{From: 6 * timebase.Hour, To: 6*timebase.Hour + 20*timebase.Minute, Offset: 150 * timebase.Millisecond},
				}
				return sc
			},
			cfg: func() Config {
				cfg := smallWindows()
				cfg.UseLocalRate = true
				return cfg
			},
		},
		{
			// Exercises rebuildLocalMinima: the shift revision rewrites
			// point errors cached in the near/far argmin deques (with
			// smallWindows, nShift=800 spans the whole local window).
			name: "upward-shift-localrate",
			scenario: func() sim.Scenario {
				sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 1008)
				sc.Server.Forward.Shifts = []netem.Shift{{At: 8 * timebase.Hour, Delta: 0.9 * timebase.Millisecond}}
				return sc
			},
			cfg: func() Config {
				cfg := smallWindows()
				cfg.UseLocalRate = true
				return cfg
			},
		},
		{
			name: "identity-rebase-localrate",
			scenario: func() sim.Scenario {
				return sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 1009)
			},
			cfg: func() Config {
				cfg := smallWindows()
				cfg.UseLocalRate = true
				return cfg
			},
			identAt: 2000,
		},
		{
			name: "outage-gap",
			scenario: func() sim.Scenario {
				sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 1005)
				sc.Gaps = []sim.Gap{{From: 8 * timebase.Hour, To: 16 * timebase.Hour}}
				return sc
			},
			cfg: defaultCfg,
		},
		{
			name: "high-loss",
			scenario: func() sim.Scenario {
				sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 1006)
				sc.LossProb = 0.3
				return sc
			},
			cfg: smallWindows,
		},
		{
			name: "identity-rebase",
			scenario: func() sim.Scenario {
				return sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 1007)
			},
			cfg:     smallWindows,
			identAt: 2000,
		},
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			tr, err := sim.Generate(v.scenario())
			if err != nil {
				t.Fatal(err)
			}
			cfg := v.cfg()
			opt, err := NewSync(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newRefSync(cfg)
			if err != nil {
				t.Fatal(err)
			}

			var worstTheta float64
			sawSlide, sawShift, sawPoor := false, false, false
			for k, ex := range tr.Completed() {
				in := Input{Ta: ex.Ta, Tf: ex.Tf, Tb: ex.Tb, Te: ex.Te}
				ro, err := opt.Process(in)
				if err != nil {
					t.Fatalf("packet %d: optimized: %v", k, err)
				}
				rr, err := ref.Process(in)
				if err != nil {
					t.Fatalf("packet %d: reference: %v", k, err)
				}
				if v.identAt > 0 {
					id := Identity{RefID: 0xC0A80101, Stratum: 1}
					if k >= v.identAt {
						id = Identity{RefID: 0xC0A80202, Stratum: 2}
					}
					if got, want := opt.ObserveIdentity(id), ref.ObserveIdentity(id); got != want {
						t.Fatalf("packet %d: ObserveIdentity %v vs reference %v", k, got, want)
					}
				}

				exact := []struct {
					name      string
					got, want float64
				}{
					{"PHat", ro.PHat, rr.PHat},
					{"PQuality", ro.PQuality, rr.PQuality},
					{"PLocal", ro.PLocal, rr.PLocal},
					{"ClockC", ro.ClockC, rr.ClockC},
					{"RTT", ro.RTT, rr.RTT},
					{"RTTHat", ro.RTTHat, rr.RTTHat},
					{"PointError", ro.PointError, rr.PointError},
					{"ThetaNaive", ro.ThetaNaive, rr.ThetaNaive},
				}
				for _, c := range exact {
					if c.got != c.want {
						t.Fatalf("packet %d: %s = %v, reference %v (Δ %g)",
							k, c.name, c.got, c.want, c.got-c.want)
					}
				}
				flags := []struct {
					name      string
					got, want bool
				}{
					{"Accepted", ro.Accepted, rr.Accepted},
					{"RateUpdated", ro.RateUpdated, rr.RateUpdated},
					{"PLocalValid", ro.PLocalValid, rr.PLocalValid},
					{"PoorQuality", ro.PoorQuality, rr.PoorQuality},
					{"UpwardShiftDetected", ro.UpwardShiftDetected, rr.UpwardShiftDetected},
					{"OffsetSanityTriggered", ro.OffsetSanityTriggered, rr.OffsetSanityTriggered},
					{"RateSanityTriggered", ro.RateSanityTriggered, rr.RateSanityTriggered},
					{"Warmup", ro.Warmup, rr.Warmup},
				}
				for _, c := range flags {
					if c.got != c.want {
						t.Fatalf("packet %d: flag %s = %v, reference %v", k, c.name, c.got, c.want)
					}
				}
				if d := math.Abs(ro.ThetaHat - rr.ThetaHat); d > 1e-12 {
					t.Fatalf("packet %d: ThetaHat = %v, reference %v (Δ %g > 1e-12)",
						k, ro.ThetaHat, rr.ThetaHat, d)
				} else if d > worstTheta {
					worstTheta = d
				}
				sawSlide = sawSlide || len(ref.hist) <= ref.nTop/2+1 && k > ref.nTop
				sawShift = sawShift || rr.UpwardShiftDetected
				sawPoor = sawPoor || rr.PoorQuality
			}
			t.Logf("%s: %d packets, worst |ΔThetaHat| = %.3g (slide=%v shift=%v poor=%v)",
				v.name, len(tr.Completed()), worstTheta, sawSlide, sawShift, sawPoor)
		})
	}
}
