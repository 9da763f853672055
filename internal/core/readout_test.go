package core

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cacheline"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// checkReadoutIsResult asserts that the readout a Process call
// published is the account that call returned — Result is what
// TestEngineGoldenDigests pins packet by packet, so the read side needs
// no second copy to be held against — and that the absolute clock
// is the closed form Ca(T) = T·P + K − θ̂(T) at every horizon given.
func checkReadoutIsResult(t *testing.T, i int, r *Readout, res Result, in Input, cfg Config, horizons ...uint64) {
	t.Helper()
	if r.P != res.PHat || r.P != res.ClockP || r.K != res.ClockC {
		t.Fatalf("packet %d: readout clock (%v,%v), result p̂ %v clock (%v,%v)", i, r.P, r.K, res.PHat, res.ClockP, res.ClockC)
	}
	// θ̂ is anchored at this packet's arrival unless the sanity check
	// duplicated the previous estimate, which keeps its older anchor.
	anchoredHere := r.ThetaTf == in.Tf
	if !r.HaveTheta || r.Theta != res.ThetaHat || anchoredHere == res.OffsetSanityTriggered || r.ThetaTf > in.Tf {
		t.Fatalf("packet %d: readout θ̂ (%v,%v at %d), result %v at %d (sanity %v)",
			i, r.Theta, r.HaveTheta, r.ThetaTf, res.ThetaHat, in.Tf, res.OffsetSanityTriggered)
	}
	if r.RTTHat != res.RTTHat || r.PQuality != res.PQuality {
		t.Fatalf("packet %d: readout (r̂ %v, quality %v), result (%v, %v)", i, r.RTTHat, r.PQuality, res.RTTHat, res.PQuality)
	}
	if r.PLocal != res.PLocal || r.PLocalValid != res.PLocalValid || r.UseLocalRate != cfg.UseLocalRate {
		t.Fatalf("packet %d: readout p̂_l (%v,%v,%v), result (%v,%v), config %v",
			i, r.PLocal, r.PLocalValid, r.UseLocalRate, res.PLocal, res.PLocalValid, cfg.UseLocalRate)
	}
	if r.Count != res.Seq+1 {
		t.Fatalf("packet %d: readout count %d, result seq %d", i, r.Count, res.Seq)
	}
	// publish's rule: in warmup while no more than WarmupSamples packets
	// have been processed — the same packets Result flags.
	if r.Warmup != (r.Count <= cfg.WarmupSamples) || r.Warmup != res.Warmup {
		t.Fatalf("packet %d: readout warmup %v at count %d (warmup %d), result %v", i, r.Warmup, r.Count, cfg.WarmupSamples, res.Warmup)
	}
	if r.LastTf != in.Tf {
		t.Fatalf("packet %d: staleness anchor %d, want %d", i, r.LastTf, in.Tf)
	}
	for _, T := range horizons {
		if got, want := r.AbsoluteTime(T), float64(T)*r.P+r.K-r.ThetaAt(T); got != want {
			t.Fatalf("packet %d: AbsoluteTime(%d) = %v, closed form %v", i, T, got, want)
		}
	}
	if got, want := r.DifferenceSpan(in.Ta, in.Tf), float64(in.Tf-in.Ta)*r.P; got != want {
		t.Fatalf("packet %d: DifferenceSpan = %v, want %v", i, got, want)
	}
}

// TestReadoutEquivalence pins the contract of the published read path:
// the engine has one read surface, the Readout, and the one a Process
// call publishes is exactly the Result that call returned — after every
// packet, with and without local-rate prediction, through warmup — and
// an identity observation republishes with the identity and, on a
// change, the re-based r̂.
func TestReadoutEquivalence(t *testing.T) {
	for _, local := range []bool{false, true} {
		cfg := DefaultConfig(2e-9, 16)
		cfg.UseLocalRate = local
		s, err := NewSync(cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Pre-first-packet readout: defined, nominal rate, no offset.
		r := s.Readout()
		if r == nil {
			t.Fatal("no readout published at construction")
		}
		if r.Count != 0 || r.HaveTheta || r.P != cfg.PHatInit {
			t.Fatalf("initial readout = %+v", r)
		}
		if got, want := r.AbsoluteTime(12345), 12345*r.P+r.K; got != want {
			t.Fatalf("initial AbsoluteTime = %v, want the uncorrected clock %v", got, want)
		}

		ins := SynthTrace(3000)
		for i, in := range ins {
			res, err := s.Process(in)
			if err != nil {
				t.Fatal(err)
			}
			r := s.Readout()
			checkReadoutIsResult(t, i, r, res, in, cfg, in.Tf, in.Tf+1, in.Tf+uint64(100/r.P))
			if i%5 == 0 {
				// Exercise the identity path too: a change at i==1500
				// re-bases the RTT filter and must republish.
				id := Identity{RefID: 0xc0a80101, Stratum: 1}
				if i >= 1500 {
					id.RefID = 0xc0a80202
				}
				changed := s.ObserveIdentity(id)
				r = s.Readout()
				if !r.IdentKnown || r.Ident != id {
					t.Fatalf("packet %d: published identity %+v/%v, want %+v", i, r.Ident, r.IdentKnown, id)
				}
				if changed && r.RTTHat != res.RTT {
					t.Fatalf("packet %d: r̂ %v after the identity change, want this packet's RTT %v", i, r.RTTHat, res.RTT)
				}
				if r.P != res.ClockP || r.K != res.ClockC || r.Theta != res.ThetaHat || r.Count != res.Seq+1 {
					t.Fatalf("packet %d: identity observation moved the clock: %+v", i, r)
				}
			}
		}
	}
}

// TestReadoutEquivalenceSimScenarios runs the golden sim scenarios'
// shapes — steady state, an upward level shift, and the local-rate
// refinement — and checks after every packet that the published
// readout is the Result of the Process call that published it.
func TestReadoutEquivalenceSimScenarios(t *testing.T) {
	scenarios := map[string]func() sim.MultiScenario{
		"steady": func() sim.MultiScenario {
			return sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, 6*timebase.Hour, 1001)
		},
		"levelshift": func() sim.MultiScenario {
			sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, 6*timebase.Hour, 1003)
			sc.Servers[0].Forward.Shifts = []netem.Shift{{At: 3 * timebase.Hour, Delta: 0.9 * timebase.Millisecond}}
			return sc
		},
	}
	for name, mk := range scenarios {
		for _, local := range []bool{false, true} {
			t.Run(name, func(t *testing.T) {
				tr, err := sim.Generate(mk())
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig(1.0/548655270, 16)
				cfg.UseLocalRate = local
				s, err := NewSync(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, e := range tr.Completed() {
					in := Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te}
					res, err := s.Process(in)
					if err != nil {
						t.Fatal(err)
					}
					r := s.Readout()
					checkReadoutIsResult(t, i, r, res, in, cfg, e.Tf, e.Tf+uint64(8/r.P))
				}
			})
		}
	}
}

// TestReadoutImmutable: a readout held across further Process calls
// keeps answering from its own snapshot — the engine moving on must not
// change an already-obtained reading.
func TestReadoutImmutable(t *testing.T) {
	s, err := NewSync(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	ins := SynthTrace(600)
	for _, in := range ins[:300] {
		if _, err := s.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Readout()
	T := ins[299].Tf + 1000
	before := r.AbsoluteTime(T)
	for _, in := range ins[300:] {
		if _, err := s.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	if after := r.AbsoluteTime(T); after != before {
		t.Fatalf("held readout changed its answer: %v -> %v", before, after)
	}
	if s.Readout() == r {
		t.Fatal("publication did not swap the snapshot pointer")
	}
}

// TestReadoutAge: the staleness bound grows with the counter at the
// difference-clock rate.
func TestReadoutAge(t *testing.T) {
	s, err := NewSync(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	ins := SynthTrace(40)
	for _, in := range ins {
		if _, err := s.Process(in); err != nil {
			t.Fatal(err)
		}
	}
	r := s.Readout()
	T := r.LastTf + uint64(10/r.P) // ~10 s later
	if age := r.Age(T); age < 9.9*0.99 || age > 10.1 {
		t.Fatalf("Age after ~10 s = %v", age)
	}
	if age := r.Age(r.LastTf); age != 0 {
		t.Fatalf("Age at the anchor = %v", age)
	}
}

// TestPublicationsKeepOffTheLiveLine is the address half of the
// hand-off contract (the layout half is reprolint's falseshare): over
// more than three slabs of publications, no readout lies within a cache
// line of the one published before it — so filling a slot never writes
// a line a reader of the live readout is on — and no slot is handed out
// twice. Carving the slab front to back fails it on the first packet.
func TestPublicationsKeepOffTheLiveLine(t *testing.T) {
	s, err := NewSync(DefaultConfig(2e-9, 16))
	if err != nil {
		t.Fatal(err)
	}
	const size = unsafe.Sizeof(Readout{})
	prev := s.Readout()
	seen := map[*Readout]bool{prev: true} // also pins every slab: a freed one could legitimately come back
	check := func(what string, i int, must bool) {
		t.Helper()
		r := s.Readout()
		if r == prev && !must {
			return
		}
		if seen[r] {
			t.Fatalf("packet %d (%s): slot %p handed out twice", i, what, r)
		}
		seen[r] = true
		lo, hi := uintptr(unsafe.Pointer(prev)), uintptr(unsafe.Pointer(r))
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi < lo+size+cacheline.Size {
			t.Fatalf("packet %d (%s): readout at %#x within %d bytes of its predecessor at %#x",
				i, what, uintptr(unsafe.Pointer(r)), cacheline.Size, uintptr(unsafe.Pointer(prev)))
		}
		prev = r
	}
	for i, in := range SynthTrace(3*cacheline.SlabRuns + 40) {
		if _, err := s.Process(in); err != nil {
			t.Fatal(err)
		}
		check("process", i, true)
		// A first-seen or changed identity publishes a second time.
		s.ObserveIdentity(Identity{RefID: uint32(1 + i/200), Stratum: 1})
		check("identity", i, false)
	}
	if len(seen) < 3*cacheline.SlabRuns {
		t.Fatalf("only %d publications", len(seen))
	}
}

// TestRingElementsHoldNoPointers pins what lets window.Ring.DropFront
// and window.Tail advance past dropped slots, and Tail move elements
// down, without clearing what they leave behind: every window the engine
// keeps — the history and the scan window (Tails) and the three deques
// inside the min trackers (Rings) — holds plain numbers, so a stale slot
// pins nothing for the collector. A pointer, slice, string, map or
// interface added to one of these element types must come with a
// clearing slide.
func TestRingElementsHoldNoPointers(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return true
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	var elems []string
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if ty.Kind() != reflect.Struct {
			return
		}
		if ty.PkgPath() == "repro/internal/window" && (strings.HasPrefix(ty.Name(), "Ring[") || strings.HasPrefix(ty.Name(), "Tail[")) {
			at, ok := reflect.PointerTo(ty).MethodByName("At")
			if !ok {
				t.Fatalf("%s: %v has no At method to take the element type from", path, ty)
			}
			elem := at.Type.Out(0).Elem()
			elems = append(elems, elem.Name())
			if !pointerFree(elem) {
				t.Errorf("%s: window element %v holds pointers; stale slots would keep their referents alive", path, elem)
			}
			return
		}
		for i := 0; i < ty.NumField(); i++ {
			walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
		}
	}
	walk("Sync", reflect.TypeOf(Sync{}))
	sort.Strings(elems)
	if want := []string{"minEntry", "minEntry", "minEntry", "record", "scanRec"}; !reflect.DeepEqual(elems, want) {
		t.Errorf("windows found by value inside Sync hold %v, want %v — a window moved where this test does not look", elems, want)
	}
}
