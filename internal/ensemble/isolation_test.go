package ensemble

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// TestPerServerIsolation: server k's engine inside an ensemble is a lone
// engine fed server k's exchanges and identities, at every N. Whatever
// the other servers do and whatever the combine stages decide —
// selection, trust, asymmetry correction, the ladder — nothing flows
// back into an engine. Each scenario runs through an ensemble and
// through one lone core.Sync per server, fed the same exchanges in the
// same order, the lone engine the way the ensemble documents its own
// order (Process, then ObserveIdentity). Every exchange's Result and
// identity verdict, and each engine's final Readout, must be equal
// with ==: a difference of one bit is a second behaviour, not noise.
//
// The scenarios are N = 1, 3 and 5 over the three server classes and
// the five-server colluding trace, each with server 0's identity changing
// mid-trace, server N−1 blackholed for a tenth of the run and, for
// N > 1, reporting no identity at all; each runs with the asymmetry
// correction off and on.
func TestPerServerIsolation(t *testing.T) {
	const poll = 16.0
	dur := timebase.Day
	scenarios := []sim.MultiScenario{
		sim.NewMultiScenario(sim.MachineRoom, []sim.ServerSpec{sim.ServerInt()}, poll, dur, 11),
		sim.NewMultiScenario(sim.MachineRoom, []sim.ServerSpec{sim.ServerInt(), sim.ServerLoc(), sim.ServerExt()}, poll, dur, 12),
		sim.NewMultiScenario(sim.Laboratory, []sim.ServerSpec{sim.ServerInt(), sim.ServerInt(), sim.ServerLoc(), sim.ServerLoc(), sim.ServerExt()}, poll, dur, 13),
		sim.NewColludingScenario(sim.MachineRoom, 1.5*timebase.Millisecond, poll, dur, 14),
	}
	for _, sc := range scenarios {
		n := len(sc.Servers)
		sc.AddOutage(n-1, 0.5*dur, 0.6*dur)
		tr, err := sim.GenerateMulti(sc)
		if err != nil {
			t.Fatal(err)
		}
		// Server 0 changes identity halfway through its exchanges.
		changeAt := 0
		for _, e := range tr.Exchanges {
			if e.Server == 0 && !e.Lost {
				changeAt++
			}
		}
		changeAt /= 2
		identity := func(k, seen int) core.Identity {
			switch {
			case k == n-1 && n > 1:
				return core.Identity{}
			case k == 0 && seen >= changeAt:
				return core.Identity{RefID: 0xc0a80202, Stratum: 1}
			}
			return core.Identity{RefID: 0xc0a80101 + uint32(k), Stratum: 1}
		}
		for _, asym := range []bool{false, true} {
			t.Run(fmt.Sprintf("N=%d/%s/asym=%v", n, sc.Name, asym), func(t *testing.T) {
				cfg := Config{AsymCorrection: asym}
				lone := make([]*core.Sync, n)
				for k := range lone {
					ec := core.DefaultConfig(1/sc.Oscillator.NominalHz, poll)
					ec.UseLocalRate = k%2 == 1
					cfg.Engines = append(cfg.Engines, ec)
					s, err := core.NewSync(ec)
					if err != nil {
						t.Fatal(err)
					}
					lone[k] = s
				}
				ens, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				seen := make([]int, n)
				changes := 0
				for i, e := range tr.Exchanges {
					if e.Lost {
						continue
					}
					k := e.Server
					in := core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te}
					id := identity(k, seen[k])
					seen[k]++
					got, gotChanged, err := ens.ProcessFrom(k, in, id)
					if err != nil {
						t.Fatalf("exchange %d: ensemble: %v", i, err)
					}
					want, err := lone[k].Process(in)
					if err != nil {
						t.Fatalf("exchange %d: lone engine %d: %v", i, k, err)
					}
					wantChanged := lone[k].ObserveIdentity(id)
					if got != want || gotChanged != wantChanged {
						t.Fatalf("exchange %d, server %d: ensemble engine gave %+v (changed %v), lone engine %+v (changed %v)",
							i, k, got, gotChanged, want, wantChanged)
					}
					if gotChanged {
						changes++
					}
				}
				if changes != 1 {
					t.Errorf("%d identity changes detected, want server 0's one", changes)
				}
				ro := ens.Readout()
				corrected := false
				for k := range lone {
					corrected = corrected || ro.Servers[k].AsymCorrection != 0
					if got, want := *ro.Servers[k].Clock, *lone[k].Readout(); got != want {
						t.Errorf("server %d final readout: ensemble engine %+v, lone engine %+v", k, got, want)
					}
				}
				if asym && n > 1 && !corrected {
					t.Error("the asymmetry correction never engaged, so the run does not exercise it")
				}
			})
		}
	}
}
