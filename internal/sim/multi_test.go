package sim

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/timebase"
)

func threeServers() []ServerSpec {
	return []ServerSpec{ServerLoc(), ServerInt(), ServerExt()}
}

// streamMulti streams sc and returns every exchange, lost ones
// included, and its Truth, index for index.
func streamMulti(t *testing.T, sc MultiScenario) ([]MultiExchange, []Truth) {
	t.Helper()
	st, err := NewMultiStream(sc)
	if err != nil {
		t.Fatal(err)
	}
	var exs []MultiExchange
	var truths []Truth
	for e, ok := st.Next(); ok; e, ok = st.Next() {
		exs = append(exs, e)
		truths = append(truths, st.Truth())
	}
	return exs, truths
}

func TestGenerateMultiDeterministic(t *testing.T) {
	sc := NewMultiScenario(MachineRoom, threeServers(), 16, 6*timebase.Hour, 42)
	a, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(sc)
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
	tr, err := Generate(sc)
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
// time origin (the half-period base offset guarantees the margin).
func TestGenerateMultiHighJitter(t *testing.T) {
	sc := NewMultiScenario(MachineRoom, threeServers(), 16, timebase.Hour, 3)
	sc.PollJitterFrac = 0.9
	tr, err := Generate(sc)
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
	exs, truths := streamMulti(t, sc)
	for k := range sc.Servers {
		worst := 0.0
		for i, e := range exs {
			if e.Lost || e.Server != k {
				continue
			}
			// The server clock error as the stamps expose it, net of
			// µs-scale stamp noise and wander.
			err := (e.Tb+e.Te)/2 - (truths[i].TrueTb+truths[i].TrueTe)/2
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
	good, err := Generate(NewColludingScenario(MachineRoom, 0, 16, 6*timebase.Hour, 11))
	if err != nil {
		t.Fatal(err)
	}
	if len(good.Exchanges) != len(exs) {
		t.Fatalf("control trace has %d exchanges, adversarial %d", len(good.Exchanges), len(exs))
	}
	for i := range good.Exchanges {
		g, b := good.Exchanges[i], exs[i]
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
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Completed() {
		if e.TrueTa >= timebase.Hour && e.TrueTa < 2*timebase.Hour {
			t.Fatalf("completed exchange inside the gap at %v", e.TrueTa)
		}
	}

	if _, err := Generate(MultiScenario{}); err == nil {
		t.Error("empty scenario accepted")
	}
	bad := NewMultiScenario(MachineRoom, nil, 16, timebase.Hour, 1)
	if _, err := Generate(bad); err == nil {
		t.Error("scenario without servers accepted")
	}
}

// completedFor returns the non-lost exchanges of one server, the feed a
// single-server clock pointed at it would see.
func completedFor(tr *Trace, server int) []Exchange {
	var out []Exchange
	for _, e := range tr.Exchanges {
		if !e.Lost && e.Server == server {
			out = append(out, e.Exchange)
		}
	}
	return out
}

// TestAbandonedMultiStreamLeavesNoGoroutine: a stream dropped in the
// middle of a chunk needs no Close: at every worker count the fills in
// flight finish their chunks and exit.
func TestAbandonedMultiStreamLeavesNoGoroutine(t *testing.T) {
	wait := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("%s: %d goroutines\n%s", what, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
		}
	}
	// Earlier tests' streams may still be finishing a chunk.
	wait("earlier streams", func() bool {
		buf := make([]byte, 1<<20)
		return !bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*MultiStream)"))
	})
	base := runtime.NumGoroutine()

	sc := NewColludingScenario(MachineRoom, 1.5*timebase.Millisecond, 16, timebase.Day, 3)
	for _, cpus := range []int{1, 2, 4} {
		st, err := newMultiStream(sc, cpus)
		if err != nil {
			t.Fatal(err)
		}
		for range chunkLen + chunkLen/2 {
			if _, ok := st.Next(); !ok {
				t.Fatal("stream ended early")
			}
		}
		wait(fmt.Sprintf("abandoned stream, cpus=%d", cpus), func() bool { return runtime.NumGoroutine() <= base })
	}
}

// TestRepliesPastTheNextPollAreLost: a reply the host would receive
// once it has sent the same server its next request counts as lost,
// for one server and for two. Polled faster than ServerExt's 14.2 ms minimum
// RTT, every exchange is lost but each server's last, which no request
// follows; polled a quarter millisecond slower than it, the queueing
// tail loses some. Every completed exchange's Tf precedes the same
// server's next Ta.
func TestRepliesPastTheNextPollAreLost(t *testing.T) {
	minRTT := ServerExt().MinRTT()
	for _, poll := range []float64{0.7 * minRTT, minRTT + 250*timebase.Microsecond} {
		single, err := NewMultiStream(NewScenario(MachineRoom, ServerExt(), poll, timebase.Minute, 5))
		if err != nil {
			t.Fatal(err)
		}
		multi, err := NewMultiStream(NewMultiScenario(MachineRoom, []ServerSpec{ServerExt(), ServerExt()}, poll, timebase.Minute, 5))
		if err != nil {
			t.Fatal(err)
		}
		var all []MultiExchange
		for ex, ok := single.Next(); ok; ex, ok = single.Next() {
			ex.Server = -1
			all = append(all, ex)
		}
		for ex, ok := multi.Next(); ok; ex, ok = multi.Next() {
			all = append(all, ex)
		}
		completed := 0
		lastTf := map[int]uint64{}
		for _, e := range all {
			if e.Lost {
				continue
			}
			completed++
			if e.Ta < lastTf[e.Server] {
				t.Fatalf("poll %v: server %d seq %d: Ta %d before the previous Tf %d", poll, e.Server, e.Seq, e.Ta, lastTf[e.Server])
			}
			lastTf[e.Server] = e.Tf
		}
		if poll < minRTT {
			if completed != 3 {
				t.Errorf("poll %v below the minimum RTT: %d of %d exchanges completed", poll, completed, len(all))
			}
		} else if frac := float64(completed) / float64(len(all)); !(frac > 0.1 && frac < 0.9) {
			t.Errorf("poll %v: completed share %.4f", poll, frac)
		}
	}
}
