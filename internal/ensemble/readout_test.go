package ensemble

import (
	"math"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/cacheline"
	"repro/internal/core"
)

// refMedian is the independent weighted-median reference: positive-
// weight entries stably sorted by value with the standard library, then
// the half-weight walk. The production median shares no code with it.
func refMedian(vals, ws []float64) float64 {
	type item struct{ v, w float64 }
	var items []item
	total := 0.0
	for k := range vals {
		if ws[k] > 0 {
			items = append(items, item{vals[k], ws[k]})
			total += ws[k]
		}
	}
	if len(items) == 0 {
		if len(vals) == 0 {
			return 0
		}
		return vals[0]
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].v < items[b].v })
	acc := 0.0
	for i := range items {
		acc += items[i].w
		if acc == total/2 {
			return (items[i].v + items[i+1].v) / 2
		}
		if acc > total/2 {
			return items[i].v
		}
	}
	return items[len(items)-1].v
}

// checkReadout asserts, at one instant, that the published readout is
// what the ensemble's documentation says it is, recomputed here from
// its own per-server entries: the combined time and rate are the
// weighted medians of the per-server clocks, the weights are normalized
// raw weights, the counts recount, the agreement count holds, and the
// ladder fields are the writer's.
func checkReadout(t *testing.T, e *Ensemble, T uint64) {
	t.Helper()
	r := e.Readout()
	if r == nil {
		t.Fatal("no readout published")
	}
	n := e.Size()
	if len(r.Servers) != n {
		t.Fatalf("readout has %d servers, want %d", len(r.Servers), n)
	}
	vals, rates, raw, norm := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	rawTotal, exchanges, ready, selected, false_ := 0.0, 0, 0, 0, 0
	for k := range r.Servers {
		sr := &r.Servers[k]
		if sr.Clock != e.Engine(k).Readout() {
			t.Fatalf("server %d: readout does not carry the engine's current snapshot", k)
		}
		vals[k] = sr.Clock.AbsoluteTime(T) - sr.AsymCorrection
		rates[k] = sr.Clock.P
		raw[k], norm[k] = sr.raw, sr.Weight
		rawTotal += sr.raw
		exchanges += sr.Exchanges
		if sr.Ready {
			ready++
		}
		if sr.Selected {
			selected++
		}
		if sr.Falseticker {
			false_++
		}
		if sr.Selected && !sr.Ready || sr.Falseticker && (sr.Selected || !sr.Ready) {
			t.Fatalf("server %d: inconsistent flags %+v", k, sr)
		}
		if sr.AgreementBound != e.cfg.AgreementFactor*sr.ErrScale {
			t.Fatalf("server %d: AgreementBound %v, want %v", k, sr.AgreementBound, e.cfg.AgreementFactor*sr.ErrScale)
		}
	}
	for k := range r.Servers {
		want := 0.0
		if rawTotal > 0 {
			want = raw[k] / rawTotal
		}
		if norm[k] != want {
			t.Fatalf("server %d: weight %v, want raw/total %v", k, norm[k], want)
		}
	}
	if got, want := r.AbsoluteTime(T), refMedian(vals, raw); got != want {
		t.Fatalf("AbsoluteTime(%d): readout %v, reference %v", T, got, want)
	}
	wantRate := refMedian(rates, raw)
	if e.frozenActive() {
		wantRate = e.frozenRate
	}
	if got := r.RateHat(); got != wantRate {
		t.Fatalf("RateHat: readout %v, reference %v", got, wantRate)
	}
	if got, want := r.DifferenceSpan(T, T+5000), 5000*wantRate; got != want {
		t.Fatalf("DifferenceSpan: readout %v, reference %v", got, want)
	}
	combined, agree := refMedian(vals, norm), 0
	for k := range r.Servers {
		if r.Servers[k].Exchanges > 0 && math.Abs(vals[k]-combined) <= r.Servers[k].AgreementBound {
			agree++
		}
	}
	if got := r.Agreement(T); got != agree {
		t.Fatalf("Agreement(%d): readout %d, reference %d", T, got, agree)
	}
	if r.Exchanges != exchanges || r.ReadyCount != ready || r.SelectedCount != selected || r.Falsetickers != false_ {
		t.Fatalf("counts %d/%d/%d/%d, recount %d/%d/%d/%d", r.Exchanges, r.ReadyCount, r.SelectedCount, r.Falsetickers,
			exchanges, ready, selected, false_)
	}
	if r.BaseState != e.base || r.Health != e.health || r.VotingCount != e.votingCount || r.LastTf != e.lastTf {
		t.Fatalf("ladder fields %v/%+v/%d do not match the writer's %v/%+v/%d", r.BaseState, r.Health, r.VotingCount,
			e.base, e.health, e.votingCount)
	}
	for k, st := range r.ServerStates() {
		sr := &r.Servers[k]
		if st.Weight != sr.Weight || st.Selected != sr.Selected || st.AsymmetryHint != sr.AsymmetryHint ||
			st.Ready != sr.Ready || st.Falseticker != sr.Falseticker ||
			st.IntersectStreak != sr.IntersectStreak || st.Exchanges != sr.Exchanges ||
			st.ErrScale != sr.ErrScale || st.PointErrLevel != sr.PointErrLevel ||
			st.RTTWobble != sr.RTTWobble || st.Penalty != sr.Penalty {
			t.Fatalf("server %d: ServerState %+v does not match readout entry %+v", k, st, sr)
		}
	}
}

// TestEnsembleReadoutEquivalence feeds the harness scenarios — all
// good, one faulty from the start, a mid-run fault — and checks after
// every exchange that the published readout equals an independent
// recomputation from its own per-server entries.
func TestEnsembleReadoutEquivalence(t *testing.T) {
	scenarios := map[string]func(server, round int) float64{
		"all-good": func(int, int) float64 { return 0 },
		"one-faulty": func(k, _ int) float64 {
			if k == 2 {
				return 5e-3
			}
			return 0
		},
		"midrun-fault": func(k, i int) float64 {
			if k == 2 && i >= 40 {
				return 5e-3
			}
			return 0
		},
	}
	for name, fault := range scenarios {
		t.Run(name, func(t *testing.T) {
			e := mustEnsemble(t, 3)
			checkReadout(t, e, 1000) // pre-first-exchange
			now := 0.0
			for i := 0; i < 80; i++ {
				for k := 0; k < e.Size(); k++ {
					now = float64(i)*16 + float64(k)*16/float64(e.Size()) + 1
					feed(t, e, k, now, fault(k, i))
					checkReadout(t, e, uint64((now+0.5)/synthP))
				}
			}
		})
	}
}

// TestEnsembleReadoutIdentity: the identity travels with the exchange,
// so the one readout that exchange publishes carries it (the relay
// derives its advertised stratum from it) and a change's penalty shows
// in the same readout.
func TestEnsembleReadoutIdentity(t *testing.T) {
	e := mustEnsemble(t, 2)
	feedFrom(t, e, 0, 1, 0, core.Identity{RefID: 0x0a000001, Stratum: 1})
	r := e.Readout()
	if !r.Servers[0].Clock.IdentKnown || r.Servers[0].Clock.Ident.Stratum != 1 {
		t.Fatalf("identity not published: %+v", r.Servers[0].Clock.Ident)
	}
	if _, changed := feedFrom(t, e, 0, 17, 0, core.Identity{RefID: 0x0a000002, Stratum: 2}); !changed {
		t.Fatal("change not detected")
	}
	r = e.Readout()
	if r.Servers[0].Clock.Ident.Stratum != 2 {
		t.Fatalf("changed identity not published: %+v", r.Servers[0].Clock.Ident)
	}
	if r.Servers[0].Penalty == 0 {
		t.Error("identity-change penalty not published")
	}
	checkReadout(t, e, uint64(18/synthP))
}

// TestEnsembleReadoutImmutable: a held readout is not changed by
// further processing, and publication swaps the pointer.
func TestEnsembleReadoutImmutable(t *testing.T) {
	e := mustEnsemble(t, 3)
	last := run(t, e, 40, func(int, int) float64 { return 0 })
	r := e.Readout()
	T := uint64((last + 1) / synthP)
	before := r.AbsoluteTime(T)
	for i := 0; i < 40; i++ {
		for k := 0; k < e.Size(); k++ {
			feed(t, e, k, last+2+float64(i)*16+float64(k)*16/3, 0)
		}
	}
	if r.AbsoluteTime(T) != before {
		t.Error("held readout changed its answer after further exchanges")
	}
	if e.Readout() == r {
		t.Error("publication did not swap the snapshot pointer")
	}
}

// TestEnsembleReadoutSynced: unsynced before warmup graduation, synced
// after, and the staleness age grows at the combined rate.
func TestEnsembleReadoutSynced(t *testing.T) {
	e := mustEnsemble(t, 3)
	if e.Readout().Synced() {
		t.Error("Synced before any exchange")
	}
	feed(t, e, 0, 0.5, 0)
	if e.Readout().Synced() {
		t.Error("Synced during warmup")
	}
	last := run(t, e, 80, func(int, int) float64 { return 0 })
	r := e.Readout()
	if !r.Synced() {
		t.Fatal("not Synced after 80 calibrated rounds")
	}
	T := r.LastTf + uint64(10/synthP)
	if age := r.Age(T); math.Abs(age-10) > 0.1 {
		t.Errorf("Age after ~10 s = %v", age)
	}
	_ = last
}

// TestEnsembleReadoutZeroAllocRead: loading the published readout and
// reading through it allocates nothing — the lock-free analogue of
// TestReadPathZeroAlloc.
func TestEnsembleReadoutZeroAllocRead(t *testing.T) {
	e := mustEnsemble(t, 5)
	last := run(t, e, 60, func(k, _ int) float64 {
		if k == 4 {
			return 5e-3
		}
		return 0
	})
	T := uint64((last + 1) / synthP)
	var sinkF float64
	var sinkI int
	for name, fn := range map[string]func(){
		"AbsoluteTime": func() { sinkF = e.Readout().AbsoluteTime(T) },
		"RateHat":      func() { sinkF = e.Readout().RateHat() },
		"Agreement":    func() { sinkI = e.Readout().Agreement(T) },
		"Age":          func() { sinkF = e.Readout().Age(T) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	_, _ = sinkF, sinkI
}

// TestPublicationsKeepOffTheLiveLines is the address half of the
// hand-off contract (the layout half is reprolint's falseshare): over
// more than three slabs of combines, none of the three things a combine
// writes for readers — the header, its Servers row, the fed engine's
// readout — lies within a cache line of the one published before it,
// and no slot of any slab is handed out twice. Carving a slab front to
// back fails it on the first exchange.
func TestPublicationsKeepOffTheLiveLines(t *testing.T) {
	const servers = 3
	e := newTestEnsemble(t, servers)
	seen := map[uintptr]bool{} // start addresses; the readouts held below pin every slab
	var held []*Readout
	check := func(what string, i int, prev, next unsafe.Pointer, size uintptr) {
		t.Helper()
		lo, hi := uintptr(prev), uintptr(next)
		if seen[hi] {
			t.Fatalf("exchange %d: %s slot %#x handed out twice", i, what, hi)
		}
		seen[hi] = true
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi < lo+size+cacheline.Size {
			t.Fatalf("exchange %d: %s at %#x within %d bytes of its predecessor at %#x",
				i, what, uintptr(next), cacheline.Size, uintptr(prev))
		}
	}
	prev := e.Readout()
	for i := 0; i < 3*pubSlabSize+40; i++ {
		k := i % servers
		// A changed identity every so often: the engine then publishes
		// twice inside one exchange, the ensemble still once.
		id := core.Identity{RefID: uint32(1 + i/200), Stratum: 1}
		feedFrom(t, e, k, float64(i/servers)*16+float64(k)*16/servers+1, 0, id)
		r := e.Readout()
		held = append(held, r)
		check("header", i, unsafe.Pointer(prev), unsafe.Pointer(r), unsafe.Sizeof(Readout{}))
		check("server row", i, unsafe.Pointer(&prev.Servers[0]), unsafe.Pointer(&r.Servers[0]),
			servers*unsafe.Sizeof(ServerReadout{}))
		check("engine readout", i, unsafe.Pointer(prev.Servers[k].Clock), unsafe.Pointer(r.Servers[k].Clock),
			unsafe.Sizeof(core.Readout{}))
		prev = r
	}
}
