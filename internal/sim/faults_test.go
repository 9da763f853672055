package sim

import (
	"math"
	"testing"

	"repro/internal/timebase"
)

// chaosScenario builds a jitter-free, loss-free scenario so fault
// windows map exactly onto emission times: server k's poll i emits at
// (i + 1/2 + k/3)·poll.
func chaosScenario(seed uint64) MultiScenario {
	sc := NewMultiScenario(MachineRoom, threeServers(), 16, 6*timebase.Hour, seed)
	sc.PollJitterFrac = 0
	sc.LossProb = 0
	return sc
}

// emissionTime reconstructs the jitter-free schedule slot of an
// exchange, which Lost records do not carry.
func emissionTime(sc MultiScenario, e MultiExchange) float64 {
	return (float64(e.Seq) + 0.5 + float64(e.Server)/float64(len(sc.Servers))) * sc.PollPeriod
}

func TestFaultScheduleDeterministic(t *testing.T) {
	build := func() MultiScenario {
		sc := NewMultiScenario(MachineRoom, threeServers(), 16, 6*timebase.Hour, 77)
		sc.AddOutage(0, timebase.Hour, 2*timebase.Hour)
		sc.AddFlaky(1, 2*timebase.Hour, 3*timebase.Hour, 0.5)
		sc.AddPartition([]int{1, 2}, 4*timebase.Hour, 5*timebase.Hour)
		sc.AddServerStep(2, 3*timebase.Hour, 4*timebase.Hour, 2*timebase.Millisecond)
		return sc
	}
	a, err := Generate(build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(build())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Exchanges) != len(b.Exchanges) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Exchanges), len(b.Exchanges))
	}
	for i := range a.Exchanges {
		if a.Exchanges[i] != b.Exchanges[i] {
			t.Fatalf("exchange %d differs between identical fault runs", i)
		}
	}
}

func TestOutageBlackholesOneServer(t *testing.T) {
	sc := chaosScenario(5)
	from, to := timebase.Hour, 2*timebase.Hour
	sc.AddOutage(1, from, to)
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range tr.Exchanges {
		at := emissionTime(sc, e)
		inWindow := at >= from && at < to
		wantLost := inWindow && e.Server == 1
		if e.Lost != wantLost {
			t.Fatalf("exchange %d (server %d at %v): Lost=%v, want %v",
				i, e.Server, at, e.Lost, wantLost)
		}
	}
}

func TestPartitionBlackholesSubset(t *testing.T) {
	sc := chaosScenario(6)
	from, to := timebase.Hour, 90*timebase.Minute
	sc.AddPartition([]int{0, 2}, from, to)
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range tr.Exchanges {
		at := emissionTime(sc, e)
		inWindow := at >= from && at < to
		wantLost := inWindow && (e.Server == 0 || e.Server == 2)
		if e.Lost != wantLost {
			t.Fatalf("exchange %d (server %d at %v): Lost=%v, want %v",
				i, e.Server, at, e.Lost, wantLost)
		}
	}
}

func TestTotalOutageBlackholesEveryone(t *testing.T) {
	sc := chaosScenario(7)
	from, to := 2*timebase.Hour, 3*timebase.Hour
	sc.AddTotalOutage(from, to)
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	sawInWindow := 0
	for i, e := range tr.Exchanges {
		at := emissionTime(sc, e)
		inWindow := at >= from && at < to
		if inWindow {
			sawInWindow++
		}
		if e.Lost != inWindow {
			t.Fatalf("exchange %d (server %d at %v): Lost=%v, want %v",
				i, e.Server, at, e.Lost, inWindow)
		}
	}
	if sawInWindow == 0 {
		t.Fatal("no exchanges scheduled inside the outage window")
	}
}

// TestFlakyWindowIsPartial: a 50% flaky window loses some but not all
// exchanges of the flaky server, deterministically, and no one else.
func TestFlakyWindowIsPartial(t *testing.T) {
	sc := chaosScenario(8)
	from, to := timebase.Hour, 3*timebase.Hour
	sc.AddFlaky(2, from, to, 0.5)
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	lost, completed := 0, 0
	for i, e := range tr.Exchanges {
		at := emissionTime(sc, e)
		inWindow := at >= from && at < to
		if e.Server == 2 && inWindow {
			if e.Lost {
				lost++
			} else {
				completed++
			}
			continue
		}
		if e.Lost {
			t.Fatalf("exchange %d (server %d at %v) lost outside the flaky window", i, e.Server, at)
		}
	}
	// 450 window polls at p=0.5: both counts far from zero.
	if lost < 100 || completed < 100 {
		t.Errorf("flaky window lost=%d completed=%d, want a genuine mix", lost, completed)
	}
}

// TestStepScheduleShiftsOnlyServerStamps: a fault schedule that only
// lies (no loss) leaves every exchange bit-identical to the no-fault
// control except the faulted server's own stamps inside the window,
// which shift by exactly the injected offset.
func TestStepScheduleShiftsOnlyServerStamps(t *testing.T) {
	const step = 2 * timebase.Millisecond
	from, to := timebase.Hour, 2*timebase.Hour

	control, controlTruths := streamMulti(t, chaosScenario(9))
	sc := chaosScenario(9)
	sc.AddServerStep(1, from, to, step)
	faulted, faultedTruths := streamMulti(t, sc)

	if len(control) != len(faulted) {
		t.Fatalf("lengths differ: %d vs %d", len(control), len(faulted))
	}
	shifted := 0
	for i := range control {
		g, f := control[i], faulted[i]
		at := emissionTime(sc, g)
		if g.Server == 1 && at >= from && at < to {
			if math.Abs(f.Tb-g.Tb-step) > 1e-12 || math.Abs(f.Te-g.Te-step) > 1e-12 {
				t.Fatalf("exchange %d: stamps shifted by (%v, %v), want %v",
					i, f.Tb-g.Tb, f.Te-g.Te, step)
			}
			// Host-side stamps and true times must be untouched: the
			// server lies, the network does not change.
			f.Tb, f.Te = g.Tb, g.Te
		}
		if g != f || controlTruths[i] != faultedTruths[i] {
			t.Fatalf("exchange %d (server %d at %v) differs beyond the injected step", i, g.Server, at)
		}
		if g.Server == 1 && at >= from && at < to {
			shifted++
		}
	}
	if shifted == 0 {
		t.Fatal("no exchanges inside the step window")
	}
}

// TestDeathRestartComposition: down for the outage, back afterwards
// with a permanently stepped clock.
func TestDeathRestartComposition(t *testing.T) {
	const step = 5 * timebase.Millisecond
	sc := chaosScenario(10)
	at, downFor := 2*timebase.Hour, 30*timebase.Minute
	sc.AddServerDeathRestart(1, at, downFor, step)
	exs, truths := streamMulti(t, sc)
	afterRestart := 0
	for i, e := range exs {
		et := emissionTime(sc, e)
		if e.Server != 1 {
			if e.Lost {
				t.Fatalf("exchange %d: healthy server %d lost at %v", i, e.Server, et)
			}
			continue
		}
		switch {
		case et >= at && et < at+downFor:
			if !e.Lost {
				t.Fatalf("exchange %d: dead server answered at %v", i, et)
			}
		case et >= at+downFor:
			if e.Lost {
				t.Fatalf("exchange %d: restarted server lost at %v", i, et)
			}
			// The restarted server's stamps carry the permanent step
			// (clock error dwarfs µs-scale stamp noise and wander).
			if errAt := (e.Tb+e.Te)/2 - (truths[i].TrueTb+truths[i].TrueTe)/2; math.Abs(errAt-step) > timebase.Millisecond {
				t.Fatalf("exchange %d: restarted server clock error %v, want ≈%v", i, errAt, step)
			}
			afterRestart++
		default:
			if e.Lost {
				t.Fatalf("exchange %d: server lost before its death at %v", i, et)
			}
		}
	}
	if afterRestart == 0 {
		t.Fatal("no exchanges after the restart")
	}
}

// TestEmptyScheduleLeavesTraceUntouched: adding no faults must not
// change a single bit relative to the schedule-free generator.
func TestEmptyScheduleLeavesTraceUntouched(t *testing.T) {
	base, err := Generate(NewMultiScenario(MachineRoom, threeServers(), 16, 6*timebase.Hour, 42))
	if err != nil {
		t.Fatal(err)
	}
	sc := NewMultiScenario(MachineRoom, threeServers(), 16, 6*timebase.Hour, 42)
	sc.Outages = []ServerOutage{}
	sc.Partitions = []Partition{}
	with, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Exchanges) != len(with.Exchanges) {
		t.Fatalf("lengths differ: %d vs %d", len(base.Exchanges), len(with.Exchanges))
	}
	for i := range base.Exchanges {
		if base.Exchanges[i] != with.Exchanges[i] {
			t.Fatalf("exchange %d differs with an empty fault schedule", i)
		}
	}
}

// TestMultiStreamFaultsMatchBatch: the streaming generator emits the
// faulted sequence Generate collects, record for record.
func TestMultiStreamFaultsMatchBatch(t *testing.T) {
	sc := NewMultiScenario(MachineRoom, threeServers(), 16, 6*timebase.Hour, 13)
	sc.AddOutage(0, timebase.Hour, 2*timebase.Hour)
	sc.AddFlaky(1, 2*timebase.Hour, 3*timebase.Hour, 0.3)
	batch, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewMultiStream(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		ex, ok := st.Next()
		if !ok {
			if i != len(batch.Exchanges) {
				t.Fatalf("stream emitted %d exchanges, batch %d", i, len(batch.Exchanges))
			}
			break
		}
		if ex != batch.Exchanges[i] {
			t.Fatalf("exchange %d differs between stream and batch", i)
		}
	}
}

func TestFaultScheduleValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*MultiScenario)
	}{
		{"outage server out of range", func(sc *MultiScenario) { sc.AddOutage(3, 0, 1) }},
		{"outage negative server", func(sc *MultiScenario) { sc.AddOutage(-1, 0, 1) }},
		{"outage empty window", func(sc *MultiScenario) { sc.AddOutage(0, 5, 5) }},
		{"outage reversed window", func(sc *MultiScenario) { sc.AddOutage(0, 5, 4) }},
		{"flaky probability above one", func(sc *MultiScenario) { sc.AddFlaky(0, 0, 1, 1.5) }},
		{"partition without servers", func(sc *MultiScenario) { sc.AddPartition(nil, 0, 1) }},
		{"partition server out of range", func(sc *MultiScenario) { sc.AddPartition([]int{0, 7}, 0, 1) }},
		{"partition empty window", func(sc *MultiScenario) { sc.AddPartition([]int{0}, 2, 2) }},
	}
	for _, tc := range cases {
		sc := chaosScenario(1)
		tc.mut(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	ok := chaosScenario(1)
	ok.AddOutage(0, 0, 1)
	ok.AddFlaky(1, 0, 1, 0.5)
	ok.AddPartition([]int{1, 2}, 0, 1)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}
