package sim

// Golden digests of the generator: a sha256 over every field of every
// emitted exchange and its Truth, lost ones included, for a fixed set
// of scenarios. Each digest is checked on the stream at every worker
// count; the Generate collector must return the stream's records,
// record for record. So streaming, trimming, the worker count and
// collecting are all pinned to the same bits. There is no update flag:
// a change that means to move the bits edits the constant and says
// why; any other change leaves every digest as it is.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/netem"
	"repro/internal/oscillator"
	"repro/internal/timebase"
)

// digest hashes exchanges and their Truths field by field,
// little-endian: Server, Seq, Lost, Ta, Tf, TfCorr, then the bits of
// Tb, Te, Tg and the four true times.
type digest struct {
	h hash.Hash
	b []byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(server int, ex Exchange, tr Truth) {
	lost := uint64(0)
	if ex.Lost {
		lost = 1
	}
	d.b = d.b[:0]
	for _, v := range [...]uint64{
		uint64(server), uint64(ex.Seq), lost, ex.Ta, ex.Tf, tr.TfCorr,
		math.Float64bits(ex.Tb), math.Float64bits(ex.Te), math.Float64bits(ex.Tg),
		math.Float64bits(ex.TrueTa), math.Float64bits(tr.TrueTb),
		math.Float64bits(tr.TrueTe), math.Float64bits(ex.TrueTf),
	} {
		d.b = binary.LittleEndian.AppendUint64(d.b, v)
	}
	d.h.Write(d.b)
}

// check compares a digest with the golden one and prints what it got
// on a mismatch.
func (d *digest) check(t *testing.T, way, golden string) {
	t.Helper()
	if got := hex.EncodeToString(d.h.Sum(nil)); got != golden {
		t.Errorf("%s: digest %s, golden %s", way, got, golden)
	}
}

// streamScenarios are the single-server cases the digests cover:
// steady state, loss+gap, server fault, level shift, and the
// long-horizon ingredients (oscillator temperature cycle, path load
// regimes).
func streamScenarios() map[string]MultiScenario {
	steady := NewScenario(MachineRoom, ServerInt(), 16, 6*timebase.Hour, 101)

	lossy := NewScenario(Laboratory, ServerLoc(), 64, 12*timebase.Hour, 102)
	lossy.LossProb = 0.05
	lossy.Gaps = []Gap{{From: 2 * timebase.Hour, To: 3 * timebase.Hour}}

	faulty := NewScenario(MachineRoom, ServerExt(), 16, 4*timebase.Hour, 103)
	faulty.Servers[0].Server.Faults = []netem.FaultWindow{
		{From: 1000, To: 2000, Offset: 150 * timebase.Millisecond},
	}

	shifted := NewScenario(MachineRoom, ServerInt(), 16, 8*timebase.Hour, 104)
	shifted.Servers[0].Forward.Shifts = []netem.Shift{{At: 4 * timebase.Hour, Delta: 0.9 * timebase.Millisecond}}

	longrun := NewScenario(MachineRoom, ServerInt(), 64, timebase.Day, 105)
	longrun.Oscillator.Temp = oscillator.TempCycle{
		AmplitudePPM: 0.02, Phase: 1.1, Harmonic2: 0.3, WeeklyMod: 0.4,
	}
	for _, p := range []*netem.PathConfig{&longrun.Servers[0].Forward, &longrun.Servers[0].Backward} {
		p.RegimeMeanDwell = 4 * timebase.Hour
		p.RegimeFactors = []float64{1, 2.5}
	}

	return map[string]MultiScenario{
		"steady": steady, "lossy": lossy, "faulty": faulty,
		"shifted": shifted, "longrun": longrun,
	}
}

var streamGolden = map[string]string{
	"steady":  "ac9bf61902ec40c16bbd9066737df7352c2e2745b7eea300c481974e55de8885",
	"lossy":   "d34c0989d0ff4955944d37d345ad4815765b5ea9a1587025dced241b8f75c373",
	"faulty":  "099b995d76b55b1f904b0cf53898e3a86b48aa52711507ac2c5951fac1e60062",
	"shifted": "b0d5ec3805f17a521aa5fa399408d4374b252edcdf9c214dd438bbb9fc3a6faf",
	"longrun": "1aef17e78d8d18df377050d838a9868ba60f184d4c3df720cab56237e8410848",
}

// TestStreamGoldenDigests holds the single-server bits: each digest is
// taken with one and with two CPUs.
func TestStreamGoldenDigests(t *testing.T) {
	for name, sc := range streamScenarios() {
		t.Run(name, func(t *testing.T) {
			checkDigests(t, sc, 2, streamGolden[name])
		})
	}
}

// checkDigests takes sc's digest with 1…maxCPUs CPUs and compares each
// with golden.
func checkDigests(t *testing.T, sc MultiScenario, maxCPUs int, golden string) {
	t.Helper()
	for cpus := 1; cpus <= maxCPUs; cpus++ {
		st, err := newMultiStream(sc, cpus)
		if err != nil {
			t.Fatal(err)
		}
		d := newDigest()
		for ex, ok := st.Next(); ok; ex, ok = st.Next() {
			d.add(ex.Server, ex.Exchange, st.Truth())
		}
		d.check(t, fmt.Sprintf("cpus=%d", cpus), golden)
	}
}

// TestGenerateIsStreamCollector: the batch entry point returns the
// records of the stream the golden pins, record for record, for the
// single-server scenarios.
func TestGenerateIsStreamCollector(t *testing.T) {
	checkCollector(t, streamScenarios())
}

// TestGenerateMultiIsStreamCollector: likewise for the multi-server
// scenarios, through the same collector.
func TestGenerateMultiIsStreamCollector(t *testing.T) {
	checkCollector(t, multiScenarios())
}

// checkCollector fails unless Generate returns, for every scenario,
// exactly the records its stream yields.
func checkCollector(t *testing.T, scenarios map[string]MultiScenario) {
	t.Helper()
	for name, sc := range scenarios {
		tr, err := Generate(sc)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewMultiStream(sc)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "Generate "+name, tr.Exchanges, st.Next)
	}
}

// sameRecords fails unless collected holds exactly the records next
// yields, in order.
func sameRecords[E comparable](t *testing.T, way string, collected []E, next func() (E, bool)) {
	t.Helper()
	i := 0
	for ex, ok := next(); ok; ex, ok = next() {
		if i == len(collected) {
			t.Fatalf("%s: the stream runs past the collector's %d records", way, i)
		}
		if collected[i] != ex {
			t.Fatalf("%s: record %d is %+v, the stream's %+v", way, i, collected[i], ex)
		}
		i++
	}
	if i != len(collected) {
		t.Fatalf("%s: the collector holds %d records, the stream %d", way, len(collected), i)
	}
}

// multiScenarios are the multi-server cases the digests cover: three
// heterogeneous servers, the colluding five, loss with a gap, and a
// day of the colluding five under every fault the schedule offers —
// loss, a total outage, a server step, a flaky window and a partition —
// so faultLost's draws are hashed too.
func multiScenarios() map[string]MultiScenario {
	gaps := NewMultiScenario(MachineRoom, []ServerSpec{ServerInt(), ServerInt()}, 64, 12*timebase.Hour, 9)
	gaps.LossProb = 0.03
	gaps.Gaps = []Gap{{From: timebase.Hour, To: 2 * timebase.Hour}}

	faults := NewColludingScenario(MachineRoom, 1.5*timebase.Millisecond, 16, timebase.Day, 12)
	faults.LossProb = 0.02
	faults.AddTotalOutage(6*timebase.Hour, 7*timebase.Hour)
	faults.AddServerStep(4, 14*timebase.Hour, 16*timebase.Hour, 3*timebase.Millisecond)
	faults.AddFlaky(1, 2*timebase.Hour, 4*timebase.Hour, 0.3)
	faults.AddPartition([]int{0, 2}, 9*timebase.Hour, 10*timebase.Hour)

	return map[string]MultiScenario{
		"ensemble3": NewMultiScenario(MachineRoom, threeServers(), 16, 6*timebase.Hour, 42),
		"collude":   NewColludingScenario(MachineRoom, 1.5*timebase.Millisecond, 16, 3*timebase.Hour, 11),
		"gaps":      gaps,
		"faults":    faults,
	}
}

var multiGolden = map[string]string{
	"ensemble3": "225feb7dc8baa2fc406966ccbd2da5182b50ee7a8cf3204dd4ea555233423dc9",
	"collude":   "8717b838088ce7f9dbe3d8a9e858cc13cfe655814e61376bb572a3c74a123d0f",
	"gaps":      "a8cfc2f986a94d4aa070fadc80eb969ca1fefd446a9a11abd2ba78618c76654c",
	"faults":    "f30e8f0492ac9d65cf7bb14b7ace50e4306f0b3476a4cdff2239142b69f69be5",
}

// TestMultiStreamGoldenDigests also holds the bits independent of the
// CPU count: each digest is taken with the workers of one CPU up to one
// CPU more than there are servers; the faults scenario spans 26 chunks.
func TestMultiStreamGoldenDigests(t *testing.T) {
	for name, sc := range multiScenarios() {
		t.Run(name, func(t *testing.T) {
			checkDigests(t, sc, len(sc.Servers)+1, multiGolden[name])
		})
	}
}

// TestStreamCachesBounded: every stream trims its stamping caches
// behind the emission front at every worker count, and the digests,
// taken untrimmed, hold that to the same bits. Trimming follows the
// emission index, so one server's stamping cache ends the same at one
// CPU and at two. The caller's Osc holds only what the caller queried.
func TestStreamCachesBounded(t *testing.T) {
	for _, sc := range []MultiScenario{
		NewScenario(MachineRoom, ServerInt(), 16, timebase.Day, 33),
		NewMultiScenario(MachineRoom, threeServers(), 16, timebase.Day, 33),
	} {
		n := len(sc.Servers)
		stampCache := make([]int, n+1)
		for cpus := 1; cpus <= n+1; cpus++ {
			st, err := newMultiStream(sc, cpus)
			if err != nil {
				t.Fatal(err)
			}
			for _, ok := st.Next(); ok; _, ok = st.Next() {
			}
			// A day at 60 s steps is 1440 entries untrimmed.
			stampCache[cpus-1] = st.StampCacheLen()
			if c := stampCache[cpus-1]; c > 2*trimMargin/60+trimEvery {
				t.Errorf("%d servers, cpus=%d: stamping cache holds %d steps", n, cpus, c)
			}
			if c := st.Osc().RandomWalkCacheLen(); c > 1 {
				t.Errorf("%d servers, cpus=%d: the caller's oscillator holds %d steps it was never asked for", n, cpus, c)
			}
		}
		if n == 1 && stampCache[0] != stampCache[1] {
			t.Errorf("stamping cache holds %d steps with one CPU, %d with two", stampCache[0], stampCache[1])
		}
	}
}

// TestRegimeSwitchingShape: with regimes enabled the path actually
// alternates regimes, the trace stays causally ordered, and disabling
// regimes (the default) is bit-identical to the pre-regime model.
func TestRegimeSwitchingShape(t *testing.T) {
	sc := NewScenario(MachineRoom, ServerInt(), 16, 2*timebase.Day, 55)
	for _, p := range []*netem.PathConfig{&sc.Servers[0].Forward, &sc.Servers[0].Backward} {
		p.RegimeMeanDwell = 5 * timebase.Hour
		p.RegimeFactors = []float64{1, 3}
	}
	exs, truths, _ := streamCompleted(t, sc)
	m := math.Inf(1)
	for i, e := range exs {
		if !eventsOrdered(e, truths[i]) {
			t.Fatalf("event order violated: %+v %+v", e, truths[i])
		}
		m = min(m, e.RTTTrue())
	}
	if m < sc.Servers[0].MinRTT() {
		t.Fatalf("min RTT %v below configured %v", m, sc.Servers[0].MinRTT())
	}
}

// TestTempCycleShape: the temperature cycle stays within its configured
// amplitude budget and preserves the 0.1 PPM global stability cone.
func TestTempCycleShape(t *testing.T) {
	cfg := oscillator.MachineRoom()
	cfg.Temp = oscillator.TempCycle{AmplitudePPM: 0.02, Phase: 0.7, Harmonic2: 0.4, WeeklyMod: 0.3}
	o, err := oscillator.New(cfg, 19)
	if err != nil {
		t.Fatal(err)
	}
	base, err := oscillator.New(oscillator.MachineRoom(), 19)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed: the random-walk path is shared, so the rate difference
	// is exactly the temperature cycle — bounded by the sum of its
	// component amplitudes.
	budget := timebase.FromPPM(0.02 * (1 + 0.4 + 0.3))
	varied := false
	for tt := 0.0; tt < 2*timebase.Week; tt += 977 {
		d := o.Rate(tt) - base.Rate(tt)
		if math.Abs(d) > budget*(1+1e-9) {
			t.Fatalf("temp cycle contribution %v beyond budget %v at t=%v", d, budget, tt)
		}
		if math.Abs(d) > budget/4 {
			varied = true
		}
	}
	if !varied {
		t.Error("temperature cycle never reached a quarter of its amplitude budget")
	}
}
