package tscclock

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// feedEnsemble sends one clean synthetic exchange with server k at true
// time now; off shifts the server's clock (a faulty server).
func feedEnsemble(t *testing.T, e *Ensemble, k int, now, off float64) EnsembleStatus {
	t.Helper()
	const p = 2e-9
	const rtt = 400e-6
	st, err := e.ProcessNTPExchange(k,
		uint64(now/p), uint64((now+rtt)/p),
		now+rtt/2+off, now+rtt/2+20e-6+off)
	if err != nil {
		t.Fatalf("server %d at %v: %v", k, now, err)
	}
	return st
}

func TestNewEnsembleValidation(t *testing.T) {
	if _, err := NewEnsemble(EnsembleOptions{}); err == nil {
		t.Error("zero Servers accepted")
	}
	if _, err := NewEnsemble(EnsembleOptions{Servers: 2}); err == nil {
		t.Error("missing NominalPeriod accepted")
	}
}

// TestEnsembleOutvotesFaultyServer exercises the public API end to end:
// three servers, one of them 5 ms wrong, fed with a staggered schedule
// as MultiLive would. The combined clock must track the two good
// servers and report the disagreement.
func TestEnsembleOutvotesFaultyServer(t *testing.T) {
	e, err := NewEnsemble(EnsembleOptions{
		Servers: 3,
		Clock:   Options{NominalPeriod: 2e-9, PollPeriod: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	const fault = 5e-3
	var last EnsembleStatus
	now := 0.0
	for i := 0; i < 100; i++ {
		for k := 0; k < 3; k++ {
			now = float64(i)*16 + float64(k)*16/3 + 1
			off := 0.0
			if k == 2 {
				off = fault
			}
			last = feedEnsemble(t, e, k, now, off)
		}
	}
	if last.Warmup {
		t.Fatal("still in warmup after 100 rounds")
	}
	truth := now + 1
	T := uint64(truth / 2e-9)
	if got := e.AbsoluteTime(T) - truth; math.Abs(got) > 100e-6 {
		t.Errorf("combined clock error %v despite a %v faulty server", got, fault)
	}
	// Agreement at the last exchange's own receive stamp (see feedEnsemble).
	if got := last.Readout.Agreement(uint64((now + 400e-6) / 2e-9)); got != 2 {
		t.Errorf("Agreement = %d, want 2", got)
	}
	// The selection stage names the faulty server outright: voted out,
	// zero selected-set membership and weight, and an asymmetry hint
	// that localizes the ~5 ms disagreement on it.
	if last.Readout.Falsetickers != 1 {
		t.Errorf("Falsetickers = %d, want 1", last.Readout.Falsetickers)
	}
	srv := last.Readout.Servers
	if len(srv) != 3 || !srv[0].Selected || !srv[1].Selected || srv[2].Selected {
		t.Errorf("Selected = %v %v %v, want true true false", srv[0].Selected, srv[1].Selected, srv[2].Selected)
	}
	if !srv[2].Falseticker || srv[2].Weight != 0 || srv[2].Exchanges != 100 {
		t.Errorf("faulty server's record = %+v, want a zero-weight falseticker after 100 exchanges", srv[2])
	}
	if math.Abs(srv[2].AsymmetryHint-fault) > fault/2 {
		t.Errorf("AsymmetryHint[2] = %v, want ≈ %v", srv[2].AsymmetryHint, fault)
	}
	if last.Readout != e.Readout() {
		t.Error("status does not carry the readout the exchange published")
	}
	if n := e.Servers(); n != 3 {
		t.Errorf("Servers = %d", n)
	}
	if got := e.Exchanges(); got != 300 {
		t.Errorf("Exchanges = %d, want 300", got)
	}
	// The combined rate is sane and Between measures with it.
	if p := e.Period(); math.Abs(p/2e-9-1) > 1e-6 {
		t.Errorf("combined period %v", p)
	}
	if d := e.Between(0, uint64(1/2e-9)); math.Abs(d-1) > 1e-6 {
		t.Errorf("Between over 1 s = %v", d)
	}
}

// TestEnsembleServerChange: identity changes surface per server through
// the embedded Status, as for Clock.
func TestEnsembleServerChange(t *testing.T) {
	e, err := NewEnsemble(EnsembleOptions{
		Servers: 2,
		Clock:   Options{NominalPeriod: 2e-9, PollPeriod: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	const p = 2e-9
	const rtt = 400e-6
	feedFrom := func(k int, now float64, refid uint32) EnsembleStatus {
		st, err := e.ProcessNTPExchangeFrom(k,
			uint64(now/p), uint64((now+rtt)/p),
			now+rtt/2, now+rtt/2+20e-6, refid, 1)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for i := 0; i < 5; i++ {
		now := float64(i)*16 + 1
		if st := feedFrom(0, now, 100); st.ServerChanged {
			t.Fatal("spurious server change")
		}
		feedFrom(1, now+8, 200)
	}
	if st := feedFrom(0, 100*16, 300); !st.ServerChanged {
		t.Error("server change not surfaced")
	}
}

// TestOnePublicationPerExchange: every exchange — without identity,
// with a first-seen, an unchanged or a changed one — publishes exactly
// one combined readout, and that readout is already the exchange's
// final word: a changed identity's penalty and new stratum are in it,
// never in a second publication a lock-free reader could fall between.
//
// Publications are counted, not inferred from addresses: the ensemble
// numbers them on the writer side, and the test feeds it single-handed.
func TestOnePublicationPerExchange(t *testing.T) {
	e, err := NewEnsemble(EnsembleOptions{
		Servers: 3,
		Clock:   Options{NominalPeriod: 2e-9, PollPeriod: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	const p, rtt = 2e-9, 400e-6
	exchange := func(what string, k int, now float64, id *core.Identity) EnsembleStatus {
		t.Helper()
		before, pubs := e.Readout(), e.ens.Publications()
		ta, tf, tb, te := uint64(now/p), uint64((now+rtt)/p), now+rtt/2, now+rtt/2+20e-6
		var st EnsembleStatus
		if id == nil {
			st, err = e.ProcessNTPExchange(k, ta, tf, tb, te)
		} else {
			st, err = e.ProcessNTPExchangeFrom(k, ta, tf, tb, te, id.RefID, id.Stratum)
		}
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		after := e.Readout()
		if st.Readout != after {
			t.Fatalf("%s: status carries a readout other than the published one", what)
		}
		if n := e.ens.Publications() - pubs; n != 1 || after == before {
			t.Fatalf("%s: %d publications (readout %p → %p), want exactly one", what, n, before, after)
		}
		return st
	}

	now := 0.0
	for i := 0; i < 100; i++ { // 300 publications: across a slab refill
		for k := 0; k < 3; k++ {
			now = float64(i)*16 + float64(k)*16/3 + 1
			exchange("no identity", k, now, nil)
		}
	}

	first := exchange("first-seen identity", 0, now+8, &core.Identity{RefID: 100, Stratum: 1})
	if first.ServerChanged || !first.Readout.Servers[0].Clock.IdentKnown {
		t.Errorf("first-seen identity: changed=%v known=%v", first.ServerChanged, first.Readout.Servers[0].Clock.IdentKnown)
	}
	if h := first.Readout.Health; h.Stratum != 2 {
		t.Errorf("health stratum behind a stratum-1 upstream = %d, want 2", h.Stratum)
	}
	same := exchange("unchanged identity", 0, now+24, &core.Identity{RefID: 100, Stratum: 1})
	if same.ServerChanged {
		t.Error("unchanged identity reported as a change")
	}
	moved := exchange("changed identity", 0, now+40, &core.Identity{RefID: 200, Stratum: 3})
	if !moved.ServerChanged {
		t.Fatal("changed identity not reported")
	}
	r := moved.Readout
	if got, was := r.Servers[0].Penalty, same.Readout.Servers[0].Penalty; !(got > was) {
		t.Errorf("changed-identity readout penalty %v, want above %v", got, was)
	}
	if r.Servers[0].Clock.Ident.Stratum != 3 || r.Health.Stratum != 4 {
		t.Errorf("changed-identity readout: upstream stratum %d, advertised %d, want 3 and 4",
			r.Servers[0].Clock.Ident.Stratum, r.Health.Stratum)
	}
	if !(r.Servers[0].Weight < same.Readout.Servers[0].Weight) {
		t.Errorf("changed-identity readout weight %v, want below %v", r.Servers[0].Weight, same.Readout.Servers[0].Weight)
	}
}

// TestEnsembleWritePathAllocs gates the public write path: in steady
// state an exchange allocates nothing but its share of the publication
// slabs — four slab refills (engine readout, combined readout, server
// entries, voter list) per 256 exchanges, about 0.016 allocations each.
// The budget is 0.05; AllocsPerRun reports whole numbers, so each run is 100
// exchanges.
func TestEnsembleWritePathAllocs(t *testing.T) {
	e, err := NewEnsemble(EnsembleOptions{
		Servers: 5,
		Clock:   Options{NominalPeriod: 2e-9, PollPeriod: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	next := func() {
		now := float64(i/5)*16 + float64(i%5)*16/5 + 1
		feedEnsemble(t, e, i%5, now, 0)
		i++
	}
	for i < 500 { // past warmup: selection, ladder and health all live
		next()
	}
	const per = 100
	perRun := testing.AllocsPerRun(100, func() {
		for j := 0; j < per; j++ {
			next()
		}
	})
	if perRun >= 0.05*per {
		t.Errorf("%v allocations per %d exchanges, want < %v", perRun, per, 0.05*per)
	}
}

// TestOneServerEnsembleIsAClock: a one-server Ensemble is a Clock. The
// live client has one path — a single upstream is the one-voter case of
// MultiLive — and that is only sound if the ensemble adds nothing to a
// lone engine: the one-voter median is that voter's clock, its asymmetry
// correction is identically zero, and with one engine the freshness
// test cannot fail. So the same trace, with a server identity change in
// the middle, through a Clock and through NewEnsemble{Servers: 1} must
// give the same Status after every exchange and the same AbsoluteTime
// (at three horizons), Period and Between — compared with ==, because a
// difference of one bit is a second behaviour, not noise.
func TestOneServerEnsembleIsAClock(t *testing.T) {
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, 2*timebase.Day, 7)
	tr, err := sim.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	exchanges := tr.Completed()
	const identityChangeAt = 5000
	if len(exchanges) < 2*identityChangeAt {
		t.Fatalf("trace has %d exchanges, want the identity change well inside it", len(exchanges))
	}
	for _, local := range []bool{false, true} {
		opts := Options{NominalPeriod: 1 / sc.Oscillator.NominalHz, PollPeriod: 16, UseLocalRate: local}
		c, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEnsemble(EnsembleOptions{Servers: 1, Clock: opts})
		if err != nil {
			t.Fatal(err)
		}
		changes := 0
		for i, ex := range exchanges {
			refID := uint32(0xc0a80101)
			if i >= identityChangeAt {
				refID = 0xc0a80202
			}
			cs, err := c.ProcessNTPExchangeFrom(ex.Ta, ex.Tf, ex.Tb, ex.Te, refID, 1)
			if err != nil {
				t.Fatal(err)
			}
			es, err := e.ProcessNTPExchangeFrom(0, ex.Ta, ex.Tf, ex.Tb, ex.Te, refID, 1)
			if err != nil {
				t.Fatal(err)
			}
			if es.Status != cs {
				t.Fatalf("local=%v exchange %d: ensemble status %+v, clock %+v", local, i, es.Status, cs)
			}
			if cs.ServerChanged {
				changes++
			}
			for _, T := range []uint64{ex.Tf, ex.Tf + 1000, ex.Tf + 1<<33} {
				if got, want := e.AbsoluteTime(T), c.AbsoluteTime(T); got != want {
					t.Fatalf("local=%v exchange %d: AbsoluteTime(%d): ensemble %v, clock %v", local, i, T, got, want)
				}
			}
			if got, want := e.Period(), c.Period(); got != want {
				t.Fatalf("local=%v exchange %d: Period: ensemble %v, clock %v", local, i, got, want)
			}
			if got, want := e.Between(ex.Ta, ex.Tf), c.Between(ex.Ta, ex.Tf); got != want {
				t.Fatalf("local=%v exchange %d: Between: ensemble %v, clock %v", local, i, got, want)
			}
		}
		if changes != 1 {
			t.Errorf("local=%v: %d server changes surfaced, want the one at exchange %d", local, changes, identityChangeAt)
		}
	}
}

// TestEnsembleReplaysPathDelaysPastThePoll: the benchmark's 14-day
// colluding scenario at the two seeds whose traces hold a path delay
// longer than the 16 s polling period — seed 33 an 18.7 s forward
// delay (server 1, seq 14597), seed 24 a 17.6 s backward one (server 0,
// seq 47742). The generator counts such a reply as lost, so the trace
// generates without panicking and the ensemble refuses no exchange.
func TestEnsembleReplaysPathDelaysPastThePoll(t *testing.T) {
	if testing.Short() {
		t.Skip("two 14-day traces")
	}
	const poll = 16.0
	dur := 14 * timebase.Day
	for _, seed := range []uint64{24, 33} {
		sc := sim.NewColludingScenario(sim.MachineRoom, 1.5*timebase.Millisecond, poll, dur, seed)
		sc.LossProb = 0.02
		sc.AddTotalOutage(dur*5/14, dur*5/14+dur/56)
		sc.AddServerStep(len(sc.Servers)-1, dur*9/14, dur*9/14+dur/28, 3*timebase.Millisecond)
		st, err := sim.NewMultiStream(sc)
		if err != nil {
			t.Fatal(err)
		}
		ens, err := NewEnsemble(EnsembleOptions{
			Servers: len(sc.Servers),
			Clock:   Options{NominalPeriod: 1 / sc.Oscillator.NominalHz, PollPeriod: poll},
		})
		if err != nil {
			t.Fatal(err)
		}
		for e, ok := st.Next(); ok; e, ok = st.Next() {
			if e.Lost {
				continue
			}
			if _, err := ens.ProcessNTPExchange(e.Server, e.Ta, e.Tf, e.Tb, e.Te); err != nil {
				t.Fatalf("seed %d: server %d seq %d refused: %v", seed, e.Server, e.Seq, err)
			}
		}
	}
}
