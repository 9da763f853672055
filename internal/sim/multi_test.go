package sim

import (
	"math"
	"testing"

	"repro/internal/timebase"
)

func threeServers() []ServerSpec {
	return []ServerSpec{ServerLoc(), ServerInt(), ServerExt()}
}

func TestGenerateMultiDeterministic(t *testing.T) {
	sc := NewMultiScenario(MachineRoom, threeServers(), 16, 6*timebase.Hour, 42)
	a, err := GenerateMulti(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateMulti(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Exchanges) != len(b.Exchanges) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Exchanges), len(b.Exchanges))
	}
	for i := range a.Exchanges {
		if a.Exchanges[i] != b.Exchanges[i] {
			t.Fatalf("exchange %d differs between identical runs", i)
		}
	}
}

func TestGenerateMultiShape(t *testing.T) {
	servers := threeServers()
	sc := NewMultiScenario(MachineRoom, servers, 16, timebase.Day, 7)
	tr, err := GenerateMulti(sc)
	if err != nil {
		t.Fatal(err)
	}

	// Roughly N per-server schedules' worth of exchanges.
	perServer := int(timebase.Day / 16)
	if got, want := len(tr.Exchanges), perServer*len(servers); got != want {
		t.Errorf("total exchanges %d, want %d", got, want)
	}

	// Emission order globally, per-server Tf strictly increasing (the
	// engines' feeding requirement), and every server represented.
	lastTrueTa := math.Inf(-1)
	lastTf := map[int]uint64{}
	counts := map[int]int{}
	for i, e := range tr.Completed() {
		if e.TrueTa < lastTrueTa-1 { // tolerate sub-second RTT overlap
			t.Fatalf("exchange %d out of emission order", i)
		}
		lastTrueTa = e.TrueTa
		if prev, ok := lastTf[e.Server]; ok && e.Tf <= prev {
			t.Fatalf("server %d: Tf not increasing at exchange %d", e.Server, i)
		}
		lastTf[e.Server] = e.Tf
		counts[e.Server]++
	}
	for k := range servers {
		if counts[k] < perServer/2 {
			t.Errorf("server %d only has %d completed exchanges", k, counts[k])
		}
	}

	// Each server's minimum observed RTT approaches its spec minimum.
	for k, spec := range servers {
		minRTT := math.Inf(1)
		for _, e := range completedFor(tr, k) {
			if r := e.RTTTrue(); r < minRTT {
				minRTT = r
			}
		}
		if minRTT < spec.MinRTT() || minRTT > spec.MinRTT()*1.5 {
			t.Errorf("server %d min RTT %v, spec minimum %v", k, minRTT, spec.MinRTT())
		}
	}
}

// TestGenerateMultiHighJitter: a jitter fraction larger than the 1/N
// stagger spacing must not push server 0's first emission before the
// time origin (the half-period base offset guarantees the margin, as
// in the single-server generator).
func TestGenerateMultiHighJitter(t *testing.T) {
	sc := NewMultiScenario(MachineRoom, threeServers(), 16, timebase.Hour, 3)
	sc.PollJitterFrac = 0.9
	tr, err := GenerateMulti(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Completed() {
		if e.TrueTa < 0 {
			t.Fatalf("emission before the origin at %v", e.TrueTa)
		}
	}
}

// TestColludingScenario pins the adversarial trace's construction: the
// colluding pair's server stamps carry the injected lie for the whole
// trace, the honest majority's stamps stay truthful, and the colluders
// sit on cleaner, shorter paths than the honest servers (the disguise
// that earns them trust weight).
func TestColludingScenario(t *testing.T) {
	const lie = 1.5 * timebase.Millisecond
	sc := NewColludingScenario(MachineRoom, lie, 16, 6*timebase.Hour, 11)
	if n := len(sc.Servers); n != 5 {
		t.Fatalf("servers = %d, want 5", n)
	}
	tr, err := GenerateMulti(sc)
	if err != nil {
		t.Fatal(err)
	}
	for k := range sc.Servers {
		worst := 0.0
		for _, e := range completedFor(tr, k) {
			// The server clock error as the stamps expose it, net of
			// µs-scale stamp noise and wander.
			err := (e.Tb+e.Te)/2 - (e.TrueTb+e.TrueTe)/2
			want := 0.0
			if k >= ColludingHonest {
				want = lie
			}
			if d := math.Abs(err - want); d > worst {
				worst = d
			}
		}
		// Stamp noise is ~4 µs with rare sub-ms Te outliers; 1 ms margin
		// separates cleanly from the 1.5 ms lie.
		if worst > timebase.Millisecond {
			t.Errorf("server %d stamp error off nominal by up to %v", k, worst)
		}
	}
	// The colluders' paths are quieter and shorter than the honest ones.
	if h, c := sc.Servers[0].MinRTT(), sc.Servers[ColludingHonest].MinRTT(); c >= h {
		t.Errorf("colluder min RTT %v not below honest %v", c, h)
	}
	if h, c := sc.Servers[0].Forward.BaseQueueMean, sc.Servers[ColludingHonest].Forward.BaseQueueMean; c >= h {
		t.Errorf("colluder queueing %v not below honest %v", c, h)
	}

	// Offset 0 is the all-good control: identical draws, no lie.
	good, err := GenerateMulti(NewColludingScenario(MachineRoom, 0, 16, 6*timebase.Hour, 11))
	if err != nil {
		t.Fatal(err)
	}
	if len(good.Exchanges) != len(tr.Exchanges) {
		t.Fatalf("control trace has %d exchanges, adversarial %d", len(good.Exchanges), len(tr.Exchanges))
	}
	for i := range good.Exchanges {
		g, b := good.Exchanges[i], tr.Exchanges[i]
		if g.Server != b.Server || g.Lost != b.Lost || g.TrueTa != b.TrueTa {
			t.Fatalf("exchange %d: control and adversarial schedules diverge", i)
		}
		if !g.Lost && b.Server >= ColludingHonest && math.Abs(b.Tb-g.Tb-lie) > 1e-9 {
			t.Fatalf("exchange %d: colluder Tb differs from control by %v, want the lie %v",
				i, b.Tb-g.Tb, lie)
		}
	}
}

func TestGenerateMultiGapsAndValidation(t *testing.T) {
	sc := NewMultiScenario(MachineRoom, threeServers(), 16, 6*timebase.Hour, 9)
	sc.Gaps = []Gap{{From: timebase.Hour, To: 2 * timebase.Hour}}
	tr, err := GenerateMulti(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Completed() {
		if e.TrueTa >= timebase.Hour && e.TrueTa < 2*timebase.Hour {
			t.Fatalf("completed exchange inside the gap at %v", e.TrueTa)
		}
	}

	if _, err := GenerateMulti(MultiScenario{}); err == nil {
		t.Error("empty scenario accepted")
	}
	bad := NewMultiScenario(MachineRoom, nil, 16, timebase.Hour, 1)
	if _, err := GenerateMulti(bad); err == nil {
		t.Error("scenario without servers accepted")
	}
}

// completedFor returns the non-lost exchanges of one server, the feed a
// single-server clock pointed at it would see.
func completedFor(tr *MultiTrace, server int) []Exchange {
	var out []Exchange
	for _, e := range tr.Exchanges {
		if !e.Lost && e.Server == server {
			out = append(out, e.Exchange)
		}
	}
	return out
}
