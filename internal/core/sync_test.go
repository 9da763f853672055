package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// runTrace feeds every completed exchange of a trace through a fresh
// engine and returns the per-packet results alongside the exchanges.
func runTrace(t testing.TB, tr *sim.Trace, cfg Config) ([]Result, []sim.MultiExchange) {
	t.Helper()
	s, err := NewSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := tr.Completed()
	results := make([]Result, 0, len(ex))
	for _, e := range ex {
		res, err := s.Process(Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te})
		if err != nil {
			t.Fatalf("Process(seq %d): %v", e.Seq, err)
		}
		results = append(results, res)
	}
	return results, ex
}

// offsetErrors computes θ̂ − θ_g for every packet: the absolute clock
// error against the DAG reference (θ_g = C(Tf) − Tg under the clock the
// engine was using at that packet).
func offsetErrors(results []Result, ex []sim.MultiExchange) []float64 {
	errs := make([]float64, len(results))
	for k, res := range results {
		thetaG := float64(ex[k].Tf)*res.ClockP + res.ClockC - ex[k].Tg
		errs[k] = res.ThetaHat - thetaG
	}
	return errs
}

func mrIntTrace(t testing.TB, dur float64, seed uint64) *sim.Trace {
	t.Helper()
	tr, err := sim.Generate(sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, dur, seed))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func defaultCfg() Config {
	// Nominal period deliberately ~49 PPM off the true mean period, as a
	// real nominal frequency would be.
	return DefaultConfig(1.0/548655270, 16)
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config accepted")
	}
	good := defaultCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.PHatInit = 0 },
		func(c *Config) { c.PollPeriod = -1 },
		func(c *Config) { c.Delta = 0 },
		func(c *Config) { c.EStarFactor = 0 },
		func(c *Config) { c.WarmupSamples = 1 },
		func(c *Config) { c.TopWindow = c.OffsetWindow },
		func(c *Config) { c.UseLocalRate = true; c.LocalRateWindow = 0 },
	}
	for i, mutate := range cases {
		c := defaultCfg()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestProcessRejectsBadInput(t *testing.T) {
	s, err := NewSync(defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(Input{Ta: 100, Tf: 100, Tb: 1, Te: 1}); err == nil {
		t.Error("non-increasing counter stamps accepted")
	}
	if _, err := s.Process(Input{Ta: 100, Tf: 200, Tb: 1, Te: 1.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(Input{Ta: 150, Tf: 180, Tb: 2, Te: 2.1}); err == nil {
		t.Error("out-of-order exchange accepted")
	}
}

// TestProcessRefusesNonFiniteStamps: a NaN or infinite server stamp is
// refused at the door and leaves no trace. An engine offered such an
// exchange — as the very first, where it would have become the clock
// origin, and throughout the trace — stays bit-identical, Result by
// Result and readout by readout, to one that never saw it, and nothing
// it publishes is ever non-finite.
func TestProcessRefusesNonFiniteStamps(t *testing.T) {
	trace := SynthTrace(400)
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	clean, err := NewSync(defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := NewSync(defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range trace {
		if i%50 == 0 {
			before := dirty.Readout()
			for j, v := range bad {
				poisoned := in
				if (i/50+j)%2 == 0 {
					poisoned.Tb = v
				} else {
					poisoned.Te = v
				}
				if res, err := dirty.Process(poisoned); err == nil || res != (Result{}) {
					t.Fatalf("exchange %d with a server stamp of %g accepted: %+v, %v", i, v, res, err)
				}
			}
			if dirty.Readout() != before {
				t.Fatalf("exchange %d: a refused exchange published a readout", i)
			}
		}
		want, err := clean.Process(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dirty.Process(in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("exchange %d: result after refusals %+v, want %+v", i, got, want)
		}
		r := *dirty.Readout()
		if r != *clean.Readout() {
			t.Fatalf("exchange %d: readout after refusals %+v, want %+v", i, r, *clean.Readout())
		}
		for _, v := range []float64{r.P, r.K, r.Theta, r.PLocal, r.PQuality, r.RTTHat, r.AbsoluteTime(in.Tf + 1000)} {
			if !finite(v) {
				t.Fatalf("exchange %d: non-finite value in readout %+v", i, r)
			}
		}
	}
}

func TestRateConvergence(t *testing.T) {
	tr := mrIntTrace(t, timebase.Day, 42)
	results, ex := runTrace(t, tr, defaultCfg())

	// After a few hours the global rate estimate must be within 0.1 PPM
	// of the oracle average rate (Figure 7's bound), and stay there.
	trueP := tr.Osc.MeanPeriod()
	for k, res := range results {
		if ex[k].TrueTf < 4*timebase.Hour {
			continue
		}
		errPPM := timebase.PPM(res.PHat/trueP - 1)
		if math.Abs(errPPM) > 0.1 {
			t.Fatalf("packet %d (t=%.0fs): rate error %v PPM exceeds 0.1",
				k, ex[k].TrueTf, errPPM)
		}
	}
}

func TestRateErrorShrinks(t *testing.T) {
	tr := mrIntTrace(t, timebase.Day, 43)
	results, ex := runTrace(t, tr, defaultCfg())
	trueP := tr.Osc.MeanPeriod()

	errAt := func(hour float64) float64 {
		for k := range results {
			if ex[k].TrueTf >= hour*timebase.Hour {
				return math.Abs(results[k].PHat/trueP - 1)
			}
		}
		t.Fatalf("no packet after hour %v", hour)
		return 0
	}
	early, late := errAt(1), errAt(20)
	if late > early && late > timebase.FromPPM(0.05) {
		t.Errorf("rate error grew: %v PPM at 1h vs %v PPM at 20h",
			timebase.PPM(early), timebase.PPM(late))
	}
}

func TestOffsetAccuracy(t *testing.T) {
	tr := mrIntTrace(t, 2*timebase.Day, 44)
	results, ex := runTrace(t, tr, defaultCfg())
	errs := offsetErrors(results, ex)

	// Discard warmup plus the first hour, then check median magnitude
	// and IQR against the paper's ~30 µs / ~15 µs scale (we allow 2-3x).
	var tail []float64
	for k, e := range errs {
		if ex[k].TrueTf > timebase.Hour {
			tail = append(tail, e)
		}
	}
	sort.Float64s(tail)
	med := tail[len(tail)/2]
	iqr := tail[3*len(tail)/4] - tail[len(tail)/4]
	if math.Abs(med) > 100*timebase.Microsecond {
		t.Errorf("median offset error %v, want within 100 µs", med)
	}
	if iqr > 100*timebase.Microsecond {
		t.Errorf("offset error IQR %v, want under 100 µs", iqr)
	}
	// The median must reflect the −Δ/2 asymmetry ambiguity: negative.
	if med > 10*timebase.Microsecond {
		t.Errorf("median offset error %v, expected negative (−Δ/2 ≈ −25 µs)", med)
	}
}

func TestOffsetBeatNaive(t *testing.T) {
	tr := mrIntTrace(t, timebase.Day, 45)
	results, ex := runTrace(t, tr, defaultCfg())
	errs := offsetErrors(results, ex)

	var algAbs, naiveAbs []float64
	for k, res := range results {
		if ex[k].TrueTf < timebase.Hour {
			continue
		}
		thetaG := float64(ex[k].Tf)*res.ClockP + res.ClockC - ex[k].Tg
		algAbs = append(algAbs, math.Abs(errs[k]))
		naiveAbs = append(naiveAbs, math.Abs(res.ThetaNaive-thetaG))
	}
	sort.Float64s(algAbs)
	sort.Float64s(naiveAbs)
	// Compare 90th percentiles: the filter must crush the delay noise.
	a90 := algAbs[len(algAbs)*9/10]
	n90 := naiveAbs[len(naiveAbs)*9/10]
	if a90 >= n90 {
		t.Errorf("filtered 90th pct %v not better than naive %v", a90, n90)
	}
}

func TestOffsetSanityOnServerFault(t *testing.T) {
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, 12*timebase.Hour, 46)
	sc.Servers[0].Server.Faults = []netem.FaultWindow{
		{From: 6 * timebase.Hour, To: 6*timebase.Hour + 5*timebase.Minute, Offset: 150 * timebase.Millisecond},
	}
	tr, err := sim.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	results, ex := runTrace(t, tr, defaultCfg())

	triggered := false
	errs := offsetErrors(results, ex)
	for k, res := range results {
		if res.OffsetSanityTriggered {
			triggered = true
		}
		// Damage must stay bounded to a few times the sanity threshold
		// (paper: "limited the damage to a millisecond or less") even
		// though the faulty stamps are 150 ms wrong.
		if ex[k].TrueTf > timebase.Hour && math.Abs(errs[k]) > 4*timebase.Millisecond {
			t.Fatalf("packet %d: offset error %v despite sanity check", k, errs[k])
		}
	}
	if !triggered {
		t.Error("150 ms server fault never triggered the offset sanity check")
	}
	// Long after the fault the estimate must have healed.
	if tail := errs[len(errs)-1]; math.Abs(tail) > 300*timebase.Microsecond {
		t.Errorf("offset error %v at end of trace, fault damage not healed", tail)
	}
}

func TestUpwardShiftDetected(t *testing.T) {
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 47)
	shiftAt := 12 * timebase.Hour
	sc.Servers[0].Forward.Shifts = []netem.Shift{{At: shiftAt, Delta: 0.9 * timebase.Millisecond}}
	tr, err := sim.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	results, ex := runTrace(t, tr, defaultCfg())

	detectedAt := -1.0
	for k, res := range results {
		if res.UpwardShiftDetected {
			detectedAt = ex[k].TrueTf
			break
		}
	}
	if detectedAt < 0 {
		t.Fatal("permanent 0.9 ms upward shift never detected")
	}
	if detectedAt < shiftAt {
		t.Fatalf("shift detected at %v before it happened at %v", detectedAt, shiftAt)
	}
	// Detection happens roughly one shift window after the event.
	cfg := defaultCfg()
	if lag := detectedAt - shiftAt; lag > 1.5*cfg.ShiftWindow {
		t.Errorf("detection lag %v exceeds 1.5·Ts = %v", lag, 1.5*cfg.ShiftWindow)
	}
	// After detection, r̂ must track the new minimum.
	last := results[len(results)-1]
	newMin := tr.Scenario.Servers[0].MinRTT() + 0.9*timebase.Millisecond
	if math.Abs(last.RTTHat-newMin) > 100*timebase.Microsecond {
		t.Errorf("final r̂ = %v, want ~%v", last.RTTHat, newMin)
	}
}

func TestDownwardShiftAbsorbed(t *testing.T) {
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerExt(), 64, timebase.Day, 48)
	shiftAt := 12 * timebase.Hour
	// Symmetric downward shift: Δ unchanged, like Figure 11d.
	sc.Servers[0].Forward.Shifts = []netem.Shift{{At: shiftAt, Delta: -0.18 * timebase.Millisecond}}
	sc.Servers[0].Backward.Shifts = []netem.Shift{{At: shiftAt, Delta: -0.18 * timebase.Millisecond}}
	tr, err := sim.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	results, ex := runTrace(t, tr, defaultCfg())

	// r̂ must drop promptly after the shift (within ~an hour of packets).
	for k, res := range results {
		if ex[k].TrueTf > shiftAt+2*timebase.Hour {
			want := tr.Scenario.Servers[0].MinRTT() - 0.36*timebase.Millisecond
			if res.RTTHat > want+200*timebase.Microsecond {
				t.Errorf("r̂ = %v at t=%v, want near %v", res.RTTHat, ex[k].TrueTf, want)
			}
			break
		}
	}
	// No upward shift may be reported for a downward event.
	for _, res := range results {
		if res.UpwardShiftDetected {
			t.Error("downward shift misreported as upward")
			break
		}
	}
}

func TestGapRecovery(t *testing.T) {
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, 2*timebase.Day, 49)
	sc.Gaps = []sim.Gap{{From: 10 * timebase.Hour, To: 34 * timebase.Hour}} // 24 h outage
	tr, err := sim.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	results, ex := runTrace(t, tr, defaultCfg())
	errs := offsetErrors(results, ex)

	// Within 30 minutes of data after the gap the offset error must be
	// back to the tens-of-µs regime.
	for k := range results {
		if ex[k].TrueTf > 34*timebase.Hour+30*timebase.Minute {
			if math.Abs(errs[k]) > 200*timebase.Microsecond {
				t.Errorf("offset error %v shortly after 24 h gap", errs[k])
			}
			break
		}
	}
	// The rate estimate remains valid across the gap.
	trueP := tr.Osc.MeanPeriod()
	last := results[len(results)-1]
	if e := timebase.PPM(last.PHat/trueP - 1); math.Abs(e) > 0.1 {
		t.Errorf("rate error %v PPM after gap", e)
	}
}

func TestLocalRateRefinement(t *testing.T) {
	tr := mrIntTrace(t, timebase.Day, 50)
	cfg := defaultCfg()
	cfg.UseLocalRate = true
	results, ex := runTrace(t, tr, cfg)

	sawValid := false
	for k, res := range results {
		if !res.PLocalValid {
			continue
		}
		sawValid = true
		// The local rate must track the oracle rate over the local
		// window to within ~the quality target plus hardware bound.
		t2 := ex[k].TrueTf
		t1 := t2 - cfg.LocalRateWindow
		if t1 < 0 {
			continue
		}
		oracle := 1 / ((1 + tr.Osc.AverageRateError(t1, t2)) * tr.Osc.Config().NominalHz)
		if e := math.Abs(timebase.PPM(res.PLocal/oracle - 1)); e > 0.15 {
			t.Fatalf("packet %d: local rate error %v PPM", k, e)
		}
	}
	if !sawValid {
		t.Fatal("local rate never became valid over a full day")
	}
}

func TestOffsetIncrementsBounded(t *testing.T) {
	// Invariant (stage iv): successive offset estimates never differ by
	// more than E_s, no matter what the data does.
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 51)
	sc.Servers[0].Server.Faults = []netem.FaultWindow{
		{From: 6 * timebase.Hour, To: 7 * timebase.Hour, Offset: -2},
		{From: 18 * timebase.Hour, To: 18.2 * timebase.Hour, Offset: 0.4},
	}
	tr, err := sim.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultCfg()
	results, _ := runTrace(t, tr, cfg)
	for k := 1; k < len(results); k++ {
		d := math.Abs(results[k].ThetaHat - results[k-1].ThetaHat)
		// The aged threshold can exceed E_s after long rejection spells
		// (the longest fault here is one hour: +0.36 ms of aging).
		if d > 2*OffsetSanity {
			t.Fatalf("offset increment %v exceeds aged sanity bound at packet %d", d, k)
		}
	}
}

func TestClockContinuityAcrossRateUpdates(t *testing.T) {
	// When p̂ changes, the redefined clock must agree with the old one at
	// the update instant (Section 6.1, Clock Offset Consistency).
	tr := mrIntTrace(t, 6*timebase.Hour, 52)
	s, err := NewSync(defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	var prevP, prevC float64
	var prevSet bool
	for _, e := range tr.Completed() {
		res, err := s.Process(Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te})
		if err != nil {
			t.Fatal(err)
		}
		if prevSet && res.RateUpdated {
			oldRead := float64(e.Tf)*prevP + prevC
			newRead := float64(e.Tf)*res.ClockP + res.ClockC
			if d := math.Abs(newRead - oldRead); d > timebase.Microsecond {
				t.Fatalf("clock jumped %v at rate update (packet %d)", d, res.Seq)
			}
		}
		prevP, prevC, prevSet = res.ClockP, res.ClockC, true
	}
}

func TestDifferenceClockAccuracy(t *testing.T) {
	// Measuring a sub-τ* interval with the difference clock must be
	// accurate to well under a µs once calibrated (Section 5.2: "the
	// same order of magnitude as a GPS synchronized software clock").
	tr := mrIntTrace(t, 6*timebase.Hour, 53)
	s, err := NewSync(defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	ex := tr.Completed()
	for _, e := range ex {
		if _, err := s.Process(Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te}); err != nil {
			t.Fatal(err)
		}
	}
	// Use oracle counter readings 100 s apart at the end of the trace.
	t1, t2 := 5.9*timebase.Hour, 5.9*timebase.Hour+100
	c1, c2 := tr.Osc.ReadTSC(t1), tr.Osc.ReadTSC(t2)
	got := s.Readout().DifferenceSpan(c1, c2)
	// 3 µs over 100 s is 0.03 PPM, the hardware-bound regime.
	if d := math.Abs(got - (t2 - t1)); d > 3*timebase.Microsecond {
		t.Errorf("difference clock error %v over 100 s", d)
	}
}

func TestAbsoluteClockTracksTruth(t *testing.T) {
	tr := mrIntTrace(t, timebase.Day, 54)
	s, err := NewSync(defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Completed() {
		if _, err := s.Process(Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te}); err != nil {
			t.Fatal(err)
		}
	}
	tt := 23.5 * timebase.Hour
	counter := tr.Osc.ReadTSC(tt)
	got := s.Readout().AbsoluteTime(counter)
	if d := math.Abs(got - tt); d > 150*timebase.Microsecond {
		t.Errorf("absolute clock error %v at end of day", d)
	}
}

func TestNaiveRatePair(t *testing.T) {
	p := 2e-9
	j := Input{Ta: 1000, Tf: 2000, Tb: 10, Te: 10.00001}
	i := Input{Ta: 1000 + 500_000_000, Tf: 2000 + 500_000_000,
		Tb: 10 + 1, Te: 10.00001 + 1}
	fwd, back, avg, err := NaiveRatePair(j, i)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{fwd, back, avg} {
		if math.Abs(v-p) > 1e-18 {
			t.Errorf("pair estimate %v, want %v", v, p)
		}
	}
	if _, _, _, err := NaiveRatePair(i, j); err == nil {
		t.Error("reversed pair accepted")
	}
}

func TestNaiveTheta(t *testing.T) {
	// Build an exchange with known offset: clock reads 0.5 s ahead.
	p, c := 1e-9, 0.5
	in := Input{Ta: 1_000_000_000, Tf: 1_002_000_000, Tb: 1.0009, Te: 1.0011}
	// C(Ta) = 1.5, C(Tf) = 1.502; midpoint 1.501; server midpoint 1.001.
	got := NaiveTheta(in, p, c)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("NaiveTheta = %v, want 0.5", got)
	}
}

func TestRunUnderHighLoss(t *testing.T) {
	sc := sim.NewScenario(sim.MachineRoom, sim.ServerInt(), 16, timebase.Day, 55)
	sc.LossProb = 0.3
	tr, err := sim.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	results, ex := runTrace(t, tr, defaultCfg())
	errs := offsetErrors(results, ex)
	var tail []float64
	for k, e := range errs {
		if ex[k].TrueTf > 2*timebase.Hour {
			tail = append(tail, math.Abs(e))
		}
	}
	sort.Float64s(tail)
	if med := tail[len(tail)/2]; med > 150*timebase.Microsecond {
		t.Errorf("median |offset error| %v under 30%% loss", med)
	}
}

// BenchmarkProcessSimTrace runs the engine over a full simulated day
// (the original end-to-end benchmark; the windowed throughput suite
// over 1M-packet synthetic traces lives in bench_test.go as
// BenchmarkProcess).
func BenchmarkProcessSimTrace(b *testing.B) {
	tr := mrIntTrace(b, timebase.Day, 1)
	ex := tr.Completed()
	inputs := make([]Input, len(ex))
	for i, e := range ex {
		inputs[i] = Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSync(defaultCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, in := range inputs {
			if _, err := s.Process(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}
