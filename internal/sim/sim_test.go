package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/netem"
	"repro/internal/timebase"
)

func shortScenario(seed uint64) MultiScenario {
	sc := NewScenario(MachineRoom, ServerInt(), 16, 6*timebase.Hour, seed)
	return sc
}

// streamCompleted streams a one-server sc and returns its completed
// exchanges and their Truths, index for index, and the stream, whose
// Osc keeps its whole history.
func streamCompleted(t *testing.T, sc MultiScenario) ([]Exchange, []Truth, *MultiStream) {
	t.Helper()
	st, err := NewMultiStream(sc)
	if err != nil {
		t.Fatal(err)
	}
	var exs []Exchange
	var truths []Truth
	for e, ok := st.Next(); ok; e, ok = st.Next() {
		if !e.Lost {
			exs = append(exs, e.Exchange)
			truths = append(truths, st.Truth())
		}
	}
	return exs, truths, st
}

// eventsOrdered reports whether an exchange's oracle times run
// ta < tb < te < tf.
func eventsOrdered(e Exchange, tr Truth) bool {
	return e.TrueTa < tr.TrueTb && tr.TrueTb < tr.TrueTe && tr.TrueTe < e.TrueTf
}

// TestRecordLayout: an exchange is the 64-byte capture record, a
// multi-server exchange adds only the server index, and the ground
// truth beside the record is zero wherever no exchange completed —
// before the first Next, for a lost exchange and after the last — for
// one server and for three, in both schedules.
func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(Exchange{}); n != 64 {
		t.Errorf("Exchange is %d bytes, want 64", n)
	}
	if n, want := unsafe.Sizeof(MultiExchange{}), 64+unsafe.Sizeof(int(0)); n != want {
		t.Errorf("MultiExchange is %d bytes, want %d", n, want)
	}

	check := func(way string, next func() (Exchange, bool), truth func() Truth) {
		t.Helper()
		if tr := truth(); tr != (Truth{}) {
			t.Fatalf("%s: Truth before the first Next is %+v", way, tr)
		}
		lost, completed := 0, 0
		for e, ok := next(); ok; e, ok = next() {
			switch tr := truth(); {
			case e.Lost && tr != (Truth{}):
				t.Fatalf("%s: lost exchange %d has Truth %+v", way, e.Seq, tr)
			case e.Lost:
				lost++
			case tr.TfCorr == 0 || tr.TrueTb == 0 || tr.TrueTe == 0:
				t.Fatalf("%s: completed exchange %d has Truth %+v", way, e.Seq, tr)
			default:
				completed++
			}
		}
		if tr := truth(); tr != (Truth{}) {
			t.Fatalf("%s: Truth after the last exchange is %+v", way, tr)
		}
		if lost == 0 || completed == 0 {
			t.Fatalf("%s: %d lost and %d completed exchanges, want both", way, lost, completed)
		}
	}

	single := shortScenario(12)
	multi := NewMultiScenario(MachineRoom, threeServers(), 16, 6*timebase.Hour, 12)
	for _, sc := range []MultiScenario{single, multi} {
		sc.LossProb = 0.05
		for _, cpus := range []int{1, 2} {
			st, err := newMultiStream(sc, cpus)
			if err != nil {
				t.Fatal(err)
			}
			next := func() (Exchange, bool) {
				e, ok := st.Next()
				return e.Exchange, ok
			}
			check(fmt.Sprintf("%d servers cpus=%d", len(sc.Servers), cpus), next, st.Truth)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(shortScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(shortScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Exchanges) != len(b.Exchanges) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Exchanges), len(b.Exchanges))
	}
	for i := range a.Exchanges {
		if a.Exchanges[i] != b.Exchanges[i] {
			t.Fatalf("exchange %d differs", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	a, _ := Generate(shortScenario(1))
	b, _ := Generate(shortScenario(2))
	same := 0
	for i := range a.Exchanges {
		if a.Exchanges[i] == b.Exchanges[i] {
			same++
		}
	}
	if same > len(a.Exchanges)/10 {
		t.Errorf("seeds 1 and 2 share %d/%d exchanges", same, len(a.Exchanges))
	}
}

func TestEventOrdering(t *testing.T) {
	exs, truths, _ := streamCompleted(t, shortScenario(3))
	for i, e := range exs {
		if !eventsOrdered(e, truths[i]) {
			t.Fatalf("event order violated: %+v %+v", e, truths[i])
		}
		if e.Tf <= e.Ta {
			t.Fatalf("counter stamps not ordered: %+v", e)
		}
		if e.Te < e.Tb {
			t.Fatalf("server stamps reversed: %+v", e)
		}
	}
}

func TestCausalityOfStamps(t *testing.T) {
	// Ta is taken before the true departure; Tf after the true arrival;
	// the DAG stamp is within jitter of the true arrival.
	tr, err := Generate(shortScenario(4))
	if err != nil {
		t.Fatal(err)
	}
	p := tr.Osc.MeanPeriod()
	for _, e := range tr.Completed() {
		if math.Abs(e.Tg-e.TrueTf) > 1e-6 {
			t.Fatalf("DAG stamp %v far from true arrival %v", e.Tg, e.TrueTf)
		}
		// Counter reading order: Ta stamp time < ta, Tf stamp time > tf.
		// We can only verify via reconstructed durations: the measured
		// RTT (counter span) must exceed the DAG-visible span tg - ta
		// minus DAG jitter, because Tf is stamped late.
		measured := timebase.CounterSpan(e.Ta, e.Tf, p)
		oracle := e.TrueTf - e.TrueTa
		if measured < oracle-2e-6 {
			t.Fatalf("measured RTT %v below oracle %v", measured, oracle)
		}
		if measured > oracle+5*timebase.Millisecond {
			t.Fatalf("measured RTT %v wildly above oracle %v", measured, oracle)
		}
	}
}

func TestRTTAboveMinimum(t *testing.T) {
	tr, err := Generate(shortScenario(5))
	if err != nil {
		t.Fatal(err)
	}
	min, got := tr.Scenario.Servers[0].MinRTT(), math.Inf(1)
	for _, e := range tr.Completed() {
		if e.RTTTrue() < min {
			t.Fatalf("oracle RTT %v below configured minimum %v", e.RTTTrue(), min)
		}
		got = math.Min(got, e.RTTTrue())
	}
	if got > min+40*timebase.Microsecond {
		t.Errorf("observed min RTT %v far above configured %v over 6 h", got, min)
	}
}

func TestTable2Characteristics(t *testing.T) {
	// The three server presets must reproduce the paper's Table 2.
	cases := []struct {
		spec      ServerSpec
		rtt, asym float64
		hops      int
	}{
		{ServerLoc(), 0.38e-3, 50e-6, 2},
		{ServerInt(), 0.89e-3, 50e-6, 5},
		{ServerExt(), 14.2e-3, 500e-6, 10},
	}
	for _, c := range cases {
		if got := c.spec.MinRTT(); math.Abs(got-c.rtt) > 0.02e-3 {
			t.Errorf("%s: min RTT %v, want ~%v", c.spec.Name, got, c.rtt)
		}
		if got := c.spec.Asymmetry(); math.Abs(got-c.asym) > 5e-6 {
			t.Errorf("%s: asymmetry %v, want ~%v", c.spec.Name, got, c.asym)
		}
		if c.spec.Forward.Hops != c.hops {
			t.Errorf("%s: hops %d, want %d", c.spec.Name, c.spec.Forward.Hops, c.hops)
		}
	}
}

func TestLossAndGaps(t *testing.T) {
	sc := shortScenario(6)
	sc.LossProb = 0.01
	sc.Gaps = []Gap{{From: 3600, To: 7200}}
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, e := range tr.Exchanges {
		if e.Lost {
			lost++
		}
		nominal := float64(e.Seq)*sc.PollPeriod + sc.PollPeriod/2
		inGap := nominal >= 3600+1 && nominal < 7200-1
		if inGap && !e.Lost {
			t.Fatalf("exchange %d at ~%v completed inside gap", e.Seq, nominal)
		}
		if e.Lost && (e.Ta != 0 || e.Tf != 0) {
			t.Fatalf("lost exchange %d carries raw data", e.Seq)
		}
	}
	if lost == 0 {
		t.Fatal("no losses at 1% loss probability")
	}
	// Completed list must exclude all lost ones.
	if got := len(tr.Completed()) + lost; got != len(tr.Exchanges) {
		t.Errorf("completed+lost = %d, want %d", got, len(tr.Exchanges))
	}
}

func TestServerFaultVisibleInStamps(t *testing.T) {
	sc := shortScenario(7)
	sc.Servers[0].Server.Faults = []netem.FaultWindow{{From: 1000, To: 1300, Offset: 150 * timebase.Millisecond}}
	exs, truths, _ := streamCompleted(t, sc)
	seenFault := false
	for i, e := range exs {
		tb := truths[i].TrueTb
		err := e.Tb - tb
		if tb > 1000 && tb < 1300 {
			if err > 0.14 {
				seenFault = true
			}
		} else if math.Abs(err) > timebase.Millisecond {
			t.Fatalf("server stamp error %v outside fault window at t=%v", err, tb)
		}
	}
	if !seenFault {
		t.Error("fault window produced no faulty stamps")
	}
}

func TestNaiveOffsetBiasNegative(t *testing.T) {
	// Forward path is more utilised than backward; the naive offset noise
	// (q< - q>)/2 must be biased negative on average (Figure 6).
	sc := NewScenario(MachineRoom, ServerInt(), 16, timebase.Day, 8)
	exs, truths, _ := streamCompleted(t, sc)
	var diffs []float64
	for i, e := range exs {
		qf := (truths[i].TrueTb - e.TrueTa) - sc.Servers[0].Forward.MinDelay
		qb := (e.TrueTf - truths[i].TrueTe) - sc.Servers[0].Backward.MinDelay
		diffs = append(diffs, (qb-qf)/2)
	}
	// The episode component is heavy-tailed (infinite variance), so test
	// the median, the robust location statistic the paper itself uses.
	sort.Float64s(diffs)
	if med := diffs[len(diffs)/2]; med >= 0 {
		t.Errorf("median (q< - q>)/2 = %v, want negative", med)
	}
}

func TestScenarioValidate(t *testing.T) {
	sc := shortScenario(1)
	sc.PollPeriod = 0
	if _, err := Generate(sc); err == nil {
		t.Error("zero poll period accepted")
	}
	sc = shortScenario(1)
	sc.LossProb = 1.5
	if _, err := Generate(sc); err == nil {
		t.Error("loss probability > 1 accepted")
	}
	sc = shortScenario(1)
	sc.Duration = -3
	if _, err := Generate(sc); err == nil {
		t.Error("negative duration accepted")
	}
}

func TestEnvironmentString(t *testing.T) {
	if Laboratory.String() != "Lab" || MachineRoom.String() != "MR" {
		t.Error("environment names wrong")
	}
	sc := NewScenario(Laboratory, ServerLoc(), 16, 100, 1)
	if sc.Name != "Lab-ServerLoc" {
		t.Errorf("scenario name = %q", sc.Name)
	}
}

func BenchmarkGenerateDay(b *testing.B) {
	sc := NewScenario(MachineRoom, ServerInt(), 16, timebase.Day, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(i + 1)
		if _, err := Generate(sc); err != nil {
			b.Fatal(err)
		}
	}
}
