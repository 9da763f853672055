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

// TestReadoutEquivalence pins the tentpole contract of the published
// read path: every read the engine answers directly (the pre-refactor
// mutex path of the public wrappers) must be answered bit-identically
// by the latest published Readout, after every packet, including
// local-rate prediction, identity re-bases, and warmup.
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
		if got, want := r.AbsoluteTime(12345), s.AbsoluteTime(12345); got != want {
			t.Fatalf("initial AbsoluteTime: readout %v, engine %v", got, want)
		}

		ins := SynthTrace(3000)
		for i, in := range ins {
			if _, err := s.Process(in); err != nil {
				t.Fatal(err)
			}
			if i%5 == 0 {
				// Exercise the identity path too: a change at i==1500
				// re-bases the RTT filter and must republish.
				id := Identity{RefID: 0xc0a80101, Stratum: 1}
				if i >= 1500 {
					id.RefID = 0xc0a80202
				}
				s.ObserveIdentity(id)
			}
			r := s.Readout()
			if r.Count != s.Count() {
				t.Fatalf("packet %d: readout count %d, engine %d", i, r.Count, s.Count())
			}
			if r.RTTHat != s.RTTHat() {
				t.Fatalf("packet %d: readout r̂ %v, engine %v", i, r.RTTHat, s.RTTHat())
			}
			if th, ok := s.Theta(); r.Theta != th || r.HaveTheta != ok {
				t.Fatalf("packet %d: readout θ̂ (%v,%v), engine (%v,%v)", i, r.Theta, r.HaveTheta, th, ok)
			}
			p, c := s.Clock()
			if r.P != p || r.K != c {
				t.Fatalf("packet %d: readout clock (%v,%v), engine (%v,%v)", i, r.P, r.K, p, c)
			}
			for _, T := range []uint64{in.Tf, in.Tf + 1, in.Tf + uint64(100/r.P)} {
				if got, want := r.AbsoluteTime(T), s.AbsoluteTime(T); got != want {
					t.Fatalf("packet %d: AbsoluteTime(%d): readout %v, engine %v", i, T, got, want)
				}
				if got, want := r.ThetaAt(T), s.ThetaAt(T); got != want {
					t.Fatalf("packet %d: ThetaAt(%d): readout %v, engine %v", i, T, got, want)
				}
			}
			if got, want := r.DifferenceSpan(in.Ta, in.Tf), s.DifferenceSpan(in.Ta, in.Tf); got != want {
				t.Fatalf("packet %d: DifferenceSpan: readout %v, engine %v", i, got, want)
			}
			if r.LastTf != in.Tf {
				t.Fatalf("packet %d: staleness anchor %d, want %d", i, r.LastTf, in.Tf)
			}
		}
	}
}

// TestReadoutEquivalenceSimScenarios runs the golden sim scenarios'
// shapes — steady state, an upward level shift, and the local-rate
// refinement — and checks after every packet that the published
// readout reads are identical to the engine's direct reads (the
// pre-refactor mutex path evaluated exactly these).
func TestReadoutEquivalenceSimScenarios(t *testing.T) {
	scenarios := map[string]func() sim.Scenario{
		"steady": func() sim.Scenario {
			return sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, 6*timebase.Hour, 1001)
		},
		"levelshift": func() sim.Scenario {
			sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, 6*timebase.Hour, 1003)
			sc.Server.Forward.Shifts = []netem.Shift{{At: 3 * timebase.Hour, Delta: 0.9 * timebase.Millisecond}}
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
					if _, err := s.Process(Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te}); err != nil {
						t.Fatal(err)
					}
					r := s.Readout()
					for _, T := range []uint64{e.Tf, e.Tf + uint64(8/r.P)} {
						if got, want := r.AbsoluteTime(T), s.AbsoluteTime(T); got != want {
							t.Fatalf("packet %d: AbsoluteTime(%d): readout %v, engine %v", i, T, got, want)
						}
					}
					if got, want := r.DifferenceSpan(e.Ta, e.Tf), s.DifferenceSpan(e.Ta, e.Tf); got != want {
						t.Fatalf("packet %d: DifferenceSpan: readout %v, engine %v", i, got, want)
					}
					if r.RTTHat != s.RTTHat() || r.Count != s.Count() {
						t.Fatalf("packet %d: readout (r̂ %v, n %d) vs engine (%v, %d)",
							i, r.RTTHat, r.Count, s.RTTHat(), s.Count())
					}
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
	for i, in := range SynthTrace(3*pubSlabSize + 40) {
		if _, err := s.Process(in); err != nil {
			t.Fatal(err)
		}
		check("process", i, true)
		// A first-seen or changed identity publishes a second time.
		s.ObserveIdentity(Identity{RefID: uint32(1 + i/200), Stratum: 1})
		check("identity", i, false)
	}
	if len(seen) < 3*pubSlabSize {
		t.Fatalf("only %d publications", len(seen))
	}
}

// TestRingElementsHoldNoPointers pins what lets window.Ring.DropFront
// advance its head without clearing the dropped slots: every ring the
// engine keeps — the history, the scan ring and the three deques inside
// the min trackers — holds plain numbers, so a stale slot pins nothing
// for the collector. A pointer, slice, string, map or interface added to
// one of these element types must come with a clearing slide.
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
		if ty.PkgPath() == "repro/internal/window" && strings.HasPrefix(ty.Name(), "Ring[") {
			at, ok := reflect.PointerTo(ty).MethodByName("At")
			if !ok {
				t.Fatalf("%s: %v has no At method to take the element type from", path, ty)
			}
			elem := at.Type.Out(0).Elem()
			elems = append(elems, elem.Name())
			if !pointerFree(elem) {
				t.Errorf("%s: ring element %v holds pointers; DropFront would keep their referents alive", path, elem)
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
		t.Errorf("rings found by value inside Sync hold %v, want %v — a ring moved where this test does not look", elems, want)
	}
}
