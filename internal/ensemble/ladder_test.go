package ensemble

import (
	"math"
	"testing"

	"repro/internal/core"
)

// feedAll runs `rounds` staggered all-good rounds starting at round
// `from`, returning the last emission time (run() always starts at
// round 0; ladder tests need to resume mid-timeline).
func feedAll(t *testing.T, e *Ensemble, from, rounds int) float64 {
	t.Helper()
	now := 0.0
	for i := from; i < from+rounds; i++ {
		for k := 0; k < e.Size(); k++ {
			now = float64(i)*16 + float64(k)*16/float64(e.Size()) + 1
			feed(t, e, k, now, 0)
		}
	}
	return now
}

// TestLadderFirstTrust: the base state starts UNSYNCED and jumps to
// SYNCED as soon as a quorum graduates — first trust is immediate, the
// recovery hysteresis only guards later upgrades.
func TestLadderFirstTrust(t *testing.T) {
	e := mustEnsemble(t, 3)
	if e.Readout().BaseState != StateUnsynced {
		t.Fatalf("initial state %v, want UNSYNCED", e.Readout().BaseState)
	}
	if r := e.Readout(); r.BaseState != StateUnsynced || r.State(0) != StateUnsynced {
		t.Fatalf("initial readout state %v/%v, want UNSYNCED", r.BaseState, r.State(0))
	}
	last := feedAll(t, e, 0, 40) // past the 32-sample warmup
	if e.Readout().BaseState != StateSynced {
		t.Fatalf("state after calibration %v, want SYNCED", e.Readout().BaseState)
	}
	if got := e.Readout().VotingCount; got != 3 {
		t.Errorf("VotingCount = %d, want 3", got)
	}
	r := e.Readout()
	if r.BaseState != StateSynced || r.VotingCount != 3 {
		t.Errorf("readout BaseState=%v VotingCount=%d, want SYNCED/3", r.BaseState, r.VotingCount)
	}
	if st := r.State(uint64((last + 1) / synthP)); st != StateSynced {
		t.Errorf("fresh read-time state %v, want SYNCED", st)
	}
	h := e.Readout().Health
	if h.Stratum != 2 || h.AllDeadChain {
		t.Errorf("health %+v, want stratum 2 (identity-less feeds), live chain", h)
	}
	if h.DriftBound < holdoverDriftFloor {
		t.Errorf("DriftBound %v below the floor %v", h.DriftBound, holdoverDriftFloor)
	}
}

// TestLadderDegradedOnStaleMajority: when all but one server stop
// answering, their engines coast but lose their votes on freshness
// (staleAfterPolls × poll = 128 s here), and the base state drops to
// DEGRADED immediately — running on one server has no count-based
// breakdown guarantee, and the ladder says so.
func TestLadderDegradedOnStaleMajority(t *testing.T) {
	e := mustEnsemble(t, 3)
	feedAll(t, e, 0, 40)
	if e.Readout().BaseState != StateSynced {
		t.Fatal("setup: ensemble did not reach SYNCED")
	}
	// Only server 0 keeps answering.
	for i := 40; i < 60; i++ {
		feed(t, e, 0, float64(i)*16+1, 0)
	}
	if e.Readout().BaseState != StateDegraded {
		t.Fatalf("state with a lone fresh server %v, want DEGRADED", e.Readout().BaseState)
	}
	if got := e.Readout().VotingCount; got != 1 {
		t.Errorf("VotingCount = %d, want 1", got)
	}
	// Rate is NOT frozen in DEGRADED: one live server still informs it.
	if e.frozenActive() {
		t.Error("rate frozen in DEGRADED")
	}
}

// TestLadderHoldoverFreezesRate is the writer-side HOLDOVER path: the
// majority goes stale AND the one server still answering turns
// faulty and is evicted by the selection stage — nothing is left to
// vote, so the ladder drops to HOLDOVER and the published rate freezes
// at the last trusted combine, bitwise, no matter how many faulty
// exchanges keep arriving.
func TestLadderHoldoverFreezesRate(t *testing.T) {
	e := mustEnsemble(t, 3)
	feedAll(t, e, 0, 40)
	trusted := e.Readout().RateHat()
	if math.Abs(trusted/synthP-1) > 1e-6 {
		t.Fatalf("setup: trusted rate %v far from %v", trusted, synthP)
	}
	// Servers 1 and 2 go dark; server 0 keeps answering with a 5 ms
	// fault. Its clock midpoint walks away from the (coasting) majority
	// faster than its noise scale balloons, so the sweep evicts it.
	for i := 40; i < 80; i++ {
		feed(t, e, 0, float64(i)*16+1, 5e-3)
	}
	if st := e.Readout().Servers[0]; st.Selected {
		t.Fatal("faulty lone server was never evicted — harness lost its teeth")
	}
	if e.Readout().BaseState != StateHoldover {
		t.Fatalf("state %v, want HOLDOVER (voting=%d)", e.Readout().BaseState, e.Readout().VotingCount)
	}
	if got := e.Readout().VotingCount; got != 0 {
		t.Errorf("VotingCount = %d, want 0", got)
	}

	// The frozen rate: further faulty exchanges cannot move the
	// published value, bitwise.
	frozen := e.Readout().RateHat()
	if math.Abs(frozen/synthP-1) > 1e-5 {
		t.Errorf("frozen rate %v drifted from the trusted value %v", frozen, synthP)
	}
	feed(t, e, 0, 80*16+1, 5e-3)
	if got := e.Readout().RateHat(); got != frozen {
		t.Errorf("rate moved in HOLDOVER: %v → %v", frozen, got)
	}

	// Health is frozen at the last trusted combine: stratum and drift
	// bound stay those of the healthy vote.
	h := e.Readout().Health
	if h.Stratum != 2 || h.ErrScale <= 0 || h.DriftBound < holdoverDriftFloor {
		t.Errorf("holdover health %+v, want the frozen trusted summary", h)
	}
	if r := e.Readout(); r.BaseState != StateHoldover {
		t.Errorf("readout BaseState %v, want HOLDOVER", r.BaseState)
	}
}

// TestLadderReadTimeStaleness: a total outage stops Process entirely,
// so only the read side can degrade — State(T) caps the published base
// by the readout's age: SYNCED while fresh, HOLDOVER past
// HoldoverAfter, UNSYNCED past UnsyncedAfter.
func TestLadderReadTimeStaleness(t *testing.T) {
	cfgs := make([]core.Config, 3)
	for i := range cfgs {
		cfgs[i] = core.DefaultConfig(synthP, 16)
	}
	e, err := New(Config{Engines: cfgs, HoldoverAfter: 100, UnsyncedAfter: 1000})
	if err != nil {
		t.Fatal(err)
	}
	last := feedAll(t, e, 0, 40)
	r := e.Readout()
	if r.HoldoverAfter != 100 || r.UnsyncedAfter != 1000 {
		t.Fatalf("readout staleness caps %v/%v, want 100/1000", r.HoldoverAfter, r.UnsyncedAfter)
	}
	at := func(dt float64) State { return r.State(uint64((last + dt) / synthP)) }
	if st := at(1); st != StateSynced {
		t.Errorf("state at +1s = %v, want SYNCED", st)
	}
	if st := at(99); st != StateSynced {
		t.Errorf("state at +99s = %v, want SYNCED", st)
	}
	if st := at(150); st != StateHoldover {
		t.Errorf("state at +150s = %v, want HOLDOVER", st)
	}
	if st := at(1500); st != StateUnsynced {
		t.Errorf("state at +1500s = %v, want UNSYNCED", st)
	}
}

// TestLadderRecoveryHysteresis: downgrades are immediate, upgrades need
// recoverAfter consecutive exchanges at the better level — the first
// packet after an outage must not re-advertise full health.
func TestLadderRecoveryHysteresis(t *testing.T) {
	e := mustEnsemble(t, 3) // recoverAfter: 3
	feedAll(t, e, 0, 40)
	for i := 40; i < 60; i++ {
		feed(t, e, 0, float64(i)*16+1, 0)
	}
	if e.Readout().BaseState != StateDegraded {
		t.Fatal("setup: majority staleness did not reach DEGRADED")
	}

	// Servers 1 and 2 come back: each exchange sees a SYNCED-worthy
	// vote again, but the upgrade lands only on the third consecutive
	// one.
	now := 60 * 16.0
	feed(t, e, 1, now+1, 0)
	if e.Readout().BaseState != StateDegraded {
		t.Fatalf("state after 1 recovery exchange %v, want still DEGRADED", e.Readout().BaseState)
	}
	feed(t, e, 2, now+6, 0)
	if e.Readout().BaseState != StateDegraded {
		t.Fatalf("state after 2 recovery exchanges %v, want still DEGRADED", e.Readout().BaseState)
	}
	feed(t, e, 0, now+11, 0)
	if e.Readout().BaseState != StateSynced {
		t.Fatalf("state after 3 recovery exchanges %v, want SYNCED", e.Readout().BaseState)
	}
}

// TestLadderHealthTracksIdentity: the advertised stratum follows the
// voting upstreams' identities — one below the best live chain, and
// unsynchronized when every voting chain is dead (stratum ≥ 15).
func TestLadderHealthTracksIdentity(t *testing.T) {
	e := mustEnsemble(t, 2)
	last := run(t, e, 40, func(_, _ int) float64 { return 0 })
	for k := 0; k < 2; k++ {
		feedFrom(t, e, k, last+8+float64(k), 0, core.Identity{RefID: uint32(10 + k), Stratum: 2})
	}
	if h := e.Readout().Health; h.Stratum != 3 || !h.AnyIdent || h.AllDeadChain {
		t.Errorf("health behind stratum-2 upstreams %+v, want stratum 3", h)
	}

	// Both chains die: identity changes re-base the engines and the
	// health must advertise unsynchronized even though the ladder still
	// has a full quorum of mutually consistent servers.
	for k := 0; k < 2; k++ {
		feedFrom(t, e, k, last+24+float64(k), 0, core.Identity{RefID: uint32(10 + k), Stratum: 16})
	}
	if h := e.Readout().Health; !h.AllDeadChain || h.Stratum != unsyncedStratum {
		t.Errorf("health behind dead chains %+v, want AllDeadChain/stratum 16", h)
	}
}

// TestLadderConfigValidation: the staleness caps reject nonsense and
// zero still means "default".
func TestLadderConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{Engines: []core.Config{
			core.DefaultConfig(synthP, 16), core.DefaultConfig(synthP, 16), core.DefaultConfig(synthP, 16),
		}}
	}
	for name, mut := range map[string]func(*Config){
		"negative HoldoverAfter":            func(c *Config) { c.HoldoverAfter = -5 },
		"NaN UnsyncedAfter":                 func(c *Config) { c.UnsyncedAfter = math.NaN() },
		"UnsyncedAfter below HoldoverAfter": func(c *Config) { c.HoldoverAfter = 100; c.UnsyncedAfter = 50 },
	} {
		cfg := base()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := New(base()); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

// TestStateString pins the advertised names (logs and stats lines key
// off them).
func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		StateUnsynced: "UNSYNCED",
		StateHoldover: "HOLDOVER",
		StateDegraded: "DEGRADED",
		StateSynced:   "SYNCED",
		State(9):      "State(9)",
	} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", uint8(st), got, want)
		}
	}
}
