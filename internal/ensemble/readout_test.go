package ensemble

import (
	"math"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/cacheline"
	"repro/internal/core"
	"repro/internal/rng"
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

// refRawWeights recomputes the unnormalized combining weights from the
// published rows alone, by the documented rule: 1/ErrScale² for a ready
// server that is selected (or while selection is off); if that leaves
// nobody, every ready server votes; and before anyone has graduated,
// every server with an exchange weighs 1.
func refRawWeights(r *Readout, disableSelection bool) []float64 {
	raw := make([]float64, len(r.Servers))
	anySelected, anyReady := false, false
	for k := range r.Servers {
		sr := &r.Servers[k]
		anyReady = anyReady || sr.Ready
		if sr.Ready && (sr.Selected || disableSelection) {
			raw[k] = 1 / (sr.ErrScale * sr.ErrScale)
			anySelected = true
		}
	}
	if !anySelected {
		for k := range r.Servers {
			sr := &r.Servers[k]
			switch {
			case sr.Ready:
				raw[k] = 1 / (sr.ErrScale * sr.ErrScale)
			case !anyReady && sr.Exchanges > 0:
				raw[k] = 1
			}
		}
	}
	return raw
}

// checkReadout asserts, at one instant, that the published readout is
// what the ensemble's documentation says it is, recomputed here row by
// row from its own per-server entries: the combined time and rate are
// the weighted medians of the per-server clocks, the weights are
// normalized raw weights, the voter list is the positive-weight rows in
// server order, the counts recount, the agreement count holds, and the
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
	vals, rates, norm := make([]float64, n), make([]float64, n), make([]float64, n)
	raw := refRawWeights(r, e.cfg.DisableSelection)
	rawTotal, exchanges, ready, selected, false_ := 0.0, 0, 0, 0, 0
	voters, synced := r.voters, false
	for k := range r.Servers {
		sr := &r.Servers[k]
		if sr.Clock != e.engines[k].Readout() {
			t.Fatalf("server %d: readout does not carry the engine's current snapshot", k)
		}
		vals[k] = sr.Clock.AbsoluteTime(T) - sr.AsymCorrection
		rates[k] = sr.Clock.P
		norm[k] = sr.Weight
		rawTotal += raw[k]
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
		if got, want := r.AgreementBound(k), agreementFactor*sr.ErrScale; got != want {
			t.Fatalf("server %d: AgreementBound %v, want %v", k, got, want)
		}
		if sr.Weight > 0 {
			if len(voters) == 0 {
				t.Fatalf("server %d: weight %v but no voter entry (list %+v)", k, sr.Weight, r.voters)
			}
			if want := (voter{sr.Clock, sr.AsymCorrection, raw[k]}); voters[0] != want {
				t.Fatalf("server %d: voter %+v, want %+v", k, voters[0], want)
			}
			voters = voters[1:]
			synced = synced || sr.Ready && sr.Clock.HaveTheta
		}
	}
	if len(voters) != 0 {
		t.Fatalf("voter list %+v has %d entries no positive-weight server accounts for", r.voters, len(voters))
	}
	if cap(r.voters) > n {
		t.Fatalf("voter list capacity %d reaches into another combine's slot", cap(r.voters))
	}
	if r.Synced() != synced {
		t.Fatalf("Synced() = %v, recomputed from the rows %v", r.Synced(), synced)
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
		if r.Servers[k].Exchanges > 0 && math.Abs(vals[k]-combined) <= r.AgreementBound(k) {
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

// TestReadEqualsRowByRowReference is the property the voter list rests
// on: it is an index into the rows, never a second opinion. Over random
// ensembles — one server to more than readScratch, asymmetry correction
// and local-rate prediction on and off, selection on and off, a lying
// minority, an identity change mid-trace, and the all-excluded transient
// forced at the end — every published readout reads, bit for bit, what
// checkReadout recomputes row by row from Servers, at counter values
// before, at and far after LastTf.
func TestReadEqualsRowByRowReference(t *testing.T) {
	src := rng.New(16)
	seen := map[string]int{}
	check := func(e *Ensemble) {
		t.Helper()
		r := e.Readout()
		for _, T := range []uint64{r.LastTf / 2, r.LastTf, r.LastTf + uint64(1e5/synthP)} {
			checkReadout(t, e, T)
		}
		equal, nonzero := 0, 0
		for k := range r.Servers {
			sr := &r.Servers[k]
			if sr.Weight > 0 {
				nonzero++
				if !sr.Ready {
					equal++
				}
				if sr.AsymCorrection != 0 {
					seen["corrected voter"]++
				}
				if c := sr.Clock; c.UseLocalRate && c.PLocalValid && c.PLocal != c.P {
					seen["local-rate voter"]++
				}
			}
		}
		if equal > 1 && equal == nonzero {
			seen["pre-graduation equal weights"]++
		}
		if r.Falsetickers > 0 {
			seen["falsetickers"]++
		}
		if r.ReadyCount > 0 && r.SelectedCount == 0 && nonzero == r.ReadyCount && !e.cfg.DisableSelection {
			seen["all-excluded transient"]++
		}
		if nonzero > readScratch {
			seen["more voters than readScratch"]++
		}
	}
	for _, n := range []int{1, 2, 3, 5, 8, 17} {
		for variant := 0; variant < 8; variant++ {
			cfgs := make([]core.Config, n)
			for i := range cfgs {
				cfgs[i] = core.DefaultConfig(synthP, 16)
				if variant&2 != 0 {
					cfgs[i].UseLocalRate = true
					cfgs[i].LocalRateWindow = 30 * 16 // valid inside the trace
				}
			}
			e, err := New(Config{Engines: cfgs, AsymCorrection: variant&1 != 0, DisableSelection: variant&4 != 0})
			if err != nil {
				t.Fatal(err)
			}
			check(e) // before any exchange: no voter, the documented fallback
			// Each path has its own bias (what the asymmetry correction
			// finds), a minority lies from a random round on, and server 0
			// changes identity mid-trace.
			bias := make([]float64, n)
			for k := range bias {
				bias[k] = (src.Float64() - 0.5) * 200e-6
			}
			liars, lieFrom, changeAt := (n-1)/2, 40+src.Intn(20), 50+src.Intn(20)
			for i := 0; i < 90; i++ {
				for k := 0; k < n; k++ {
					off := bias[k]
					if k >= n-liars && i >= lieFrom {
						off += 5e-3
					}
					in := synthInput(float64(i)*16+float64(k)*16/float64(n)+1, off)
					in.Tf += uint64(src.Intn(5)) * 1000 // 0–8 µs of queueing
					id := core.Identity{RefID: 1, Stratum: 1}
					if k == 0 && i >= changeAt {
						id.RefID = 2
					}
					_, changed, err := e.ProcessFrom(k, in, id)
					if err != nil {
						t.Fatal(err)
					}
					if changed {
						seen["identity change"]++
					}
					check(e)
				}
			}
			// The all-excluded transient, as a mass eviction leaves it:
			// every seat taken away, the ready servers vote regardless.
			for k := range e.members {
				e.members[k].selected = false
			}
			e.publish()
			check(e)
		}
	}
	for _, what := range []string{"corrected voter", "local-rate voter", "pre-graduation equal weights", "falsetickers",
		"all-excluded transient", "more voters than readScratch", "identity change"} {
		if seen[what] == 0 {
			t.Errorf("coverage: no readout with %s — harness lost its teeth", what)
		}
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
	before, votersBefore, syncedBefore := r.AbsoluteTime(T), append([]voter(nil), r.voters...), r.Synced()
	for i := 0; i < 40; i++ {
		for k := 0; k < e.Size(); k++ {
			feed(t, e, k, last+2+float64(i)*16+float64(k)*16/3, 0)
		}
	}
	if r.AbsoluteTime(T) != before || r.Synced() != syncedBefore {
		t.Error("held readout changed its answer after further exchanges")
	}
	if !slices.Equal(r.voters, votersBefore) {
		t.Errorf("held readout's voter list rewritten: %+v, was %+v", r.voters, votersBefore)
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
	if r := e.Readout(); len(r.voters) != 4 || r.Falsetickers != 1 {
		t.Fatalf("harness: %d voters, %d falsetickers, want 4 and 1", len(r.voters), r.Falsetickers)
	}
	var sinkF float64
	var sinkI int
	var sinkB bool
	for name, fn := range map[string]func(){
		"AbsoluteTime":   func() { sinkF = e.Readout().AbsoluteTime(T) },
		"RateHat":        func() { sinkF = e.Readout().RateHat() },
		"Agreement":      func() { sinkI = e.Readout().Agreement(T) },
		"AgreementBound": func() { sinkF = e.Readout().AgreementBound(4) },
		"Synced":         func() { sinkB = e.Readout().Synced() },
		"Age":            func() { sinkF = e.Readout().Age(T) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	_, _, _ = sinkF, sinkI, sinkB
}

// TestPublicationsKeepOffTheLiveLines is the address half of the
// hand-off contract (the layout half is reprolint's falseshare): over
// more than three slabs of combines, none of the four things a combine
// writes for readers — the header, its Servers row, its voter list, the
// fed engine's readout — lies within a cache line of the one published
// before it, and no slot of any slab is handed out twice. Carving a slab
// front to back fails it on the first exchange; one server is the case
// where a voter list is narrower than a line and only the slot spacing
// keeps two of them apart.
func TestPublicationsKeepOffTheLiveLines(t *testing.T) {
	for _, servers := range []int{1, 3} {
		e := newTestEnsemble(t, servers)
		seen := map[uintptr]bool{} // start addresses; the readouts held below pin every slab
		var held []*Readout
		check := func(what string, i int, prev, next unsafe.Pointer, size uintptr) {
			t.Helper()
			lo, hi := uintptr(prev), uintptr(next)
			if seen[hi] {
				t.Fatalf("%d servers, exchange %d: %s slot %#x handed out twice", servers, i, what, hi)
			}
			seen[hi] = true
			if lo > hi {
				lo, hi = hi, lo
			}
			if hi < lo+size+cacheline.Size {
				t.Fatalf("%d servers, exchange %d: %s at %#x within %d bytes of its predecessor at %#x",
					servers, i, what, uintptr(next), cacheline.Size, uintptr(prev))
			}
		}
		prev := e.Readout()
		for i := 0; i < 3*cacheline.SlabRuns+40; i++ {
			k := i % servers
			// A changed identity every so often: the engine then publishes
			// twice inside one exchange, the ensemble still once.
			id := core.Identity{RefID: uint32(1 + i/200), Stratum: 1}
			feedFrom(t, e, k, float64(i/servers)*16+float64(k)*16/float64(servers)+1, 0, id)
			r := e.Readout()
			held = append(held, r)
			check("header", i, unsafe.Pointer(prev), unsafe.Pointer(r), unsafe.Sizeof(Readout{}))
			check("server row", i, unsafe.Pointer(&prev.Servers[0]), unsafe.Pointer(&r.Servers[0]),
				uintptr(servers)*unsafe.Sizeof(ServerReadout{}))
			// A voter list is located by its backing array, which exists
			// (capacity one entry per server) even while nobody votes.
			check("voter list", i, unsafe.Pointer(unsafe.SliceData(prev.voters)), unsafe.Pointer(unsafe.SliceData(r.voters)),
				uintptr(cap(r.voters))*unsafe.Sizeof(voter{}))
			check("engine readout", i, unsafe.Pointer(prev.Servers[k].Clock), unsafe.Pointer(r.Servers[k].Clock),
				unsafe.Sizeof(core.Readout{}))
			prev = r
		}
		if len(prev.voters) != servers {
			t.Fatalf("%d servers: %d voters at the end of the run", servers, len(prev.voters))
		}
	}
}
