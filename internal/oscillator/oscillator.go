// Package oscillator models the CPU oscillator that drives the TSC
// register. The paper's synchronization algorithms are built on a
// two-parameter hardware abstraction measured in its Section 3: the Simple
// Skew Model (SKM) holds up to the SKM scale tau* ~ 1000 s, and the rate
// error is bounded by 0.1 PPM over all time scales. This package provides
// a parametric oscillator whose Allan deviation reproduces those measured
// curves (Figure 3): a constant skew from nominal (~tens of PPM), slow
// deterministic temperature cycles (daily and weekly), the low-amplitude
// 100-200 minute oscillatory component observed in the machine room, and a
// small bounded random-walk wander.
//
// The oscillator exposes its exact phase (cycle count as a function of
// true time) in closed form plus a cached piecewise integral for the
// random-walk term, so that multi-month traces can be generated without
// accumulating numerical drift.
//
// The phase takes its sinusoids' cosines four at a time (cos4). On amd64
// with AVX2 an assembly kernel (cos_amd64.s) computes them, bit for bit
// math.Cos for every finite argument below 2²⁹ in magnitude; any other
// lane, and every other platform, takes math.Cos itself. internal/cpuid's
// probe is the whole dispatch, so a trace is the same bits either way.
//
//repro:deterministic
package oscillator

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/rng"
	"repro/internal/timebase"
)

// Sinusoid is one deterministic periodic component of frequency wander.
type Sinusoid struct {
	AmplitudePPM float64 // peak rate deviation, PPM
	Period       float64 // seconds
	Phase        float64 // radians at t = 0
}

// TempCycle is the diurnal temperature drift cycle of a long-horizon
// scenario: a daily fundamental plus an optional second harmonic (the
// day/night asymmetry of an office or machine-room thermal load) whose
// amplitude is itself modulated on the week scale (weekday/weekend
// load). Internally it expands into closed-form sinusoids, so it
// integrates exactly like the base Sinusoids and adds no per-read cost;
// the zero value contributes nothing.
type TempCycle struct {
	// AmplitudePPM is the peak rate deviation of the daily fundamental.
	AmplitudePPM float64
	// Phase is the fundamental's phase in radians at t = 0 (which hour
	// of the day the temperature peaks).
	Phase float64
	// Harmonic2 is the fraction of the amplitude carried by the second
	// harmonic (12 h period), shaping the asymmetric heat-up/cool-down
	// profile. Typical values are 0–0.5.
	Harmonic2 float64
	// WeeklyMod is the fractional week-scale amplitude modulation in
	// [0, 1): 0.3 means the daily swing breathes ±30% over the week.
	WeeklyMod float64
}

// expand returns the sinusoid terms realizing the cycle. The weekly
// modulation A·m·sin(ω_d t+φ)·sin(ω_w t) is expanded into its two
// sum/difference tones so the phase integral stays closed-form.
func (tc TempCycle) expand() []Sinusoid {
	if tc.AmplitudePPM == 0 {
		return nil
	}
	sins := []Sinusoid{{AmplitudePPM: tc.AmplitudePPM, Period: timebase.Day, Phase: tc.Phase}}
	if tc.Harmonic2 != 0 {
		sins = append(sins, Sinusoid{
			AmplitudePPM: tc.AmplitudePPM * tc.Harmonic2,
			Period:       timebase.Day / 2,
			Phase:        2 * tc.Phase,
		})
	}
	if tc.WeeklyMod != 0 {
		// sin(a)·sin(b) = [cos(a−b) − cos(a+b)]/2, cos(x) = sin(x+π/2).
		half := tc.AmplitudePPM * tc.WeeklyMod / 2
		fDiff := 1/timebase.Day - 1/timebase.Week
		fSum := 1/timebase.Day + 1/timebase.Week
		sins = append(sins,
			Sinusoid{AmplitudePPM: half, Period: 1 / fDiff, Phase: tc.Phase + math.Pi/2},
			Sinusoid{AmplitudePPM: half, Period: 1 / fSum, Phase: tc.Phase + 3*math.Pi/2},
		)
	}
	return sins
}

// Config parameterizes an oscillator.
type Config struct {
	// NominalHz is the advertised counter frequency, e.g. 548655270 for
	// the paper's 600 MHz-class host whose TSC ran near 548.655 MHz.
	NominalHz float64

	// SkewPPM is the constant deviation of the mean oscillator rate from
	// nominal (the gamma of the SKM); CPU oscillators are typically
	// within +-50 PPM of nominal.
	SkewPPM float64

	// Sinusoids are deterministic periodic wander components
	// (temperature cycles, cooling-fan oscillation, ...).
	Sinusoids []Sinusoid

	// Temp is the structured diurnal temperature drift cycle of
	// long-horizon scenarios; the zero value contributes nothing.
	Temp TempCycle

	// RandomWalkStep is the update interval of the bounded random-walk
	// frequency component, and RandomWalkStepPPM the standard deviation
	// of each increment. The walk reflects at +-RandomWalkBoundPPM so
	// the hardware's 0.1 PPM global stability bound is respected.
	RandomWalkStep     float64
	RandomWalkStepPPM  float64
	RandomWalkBoundPPM float64

	// TSC0 is the counter value at t = 0.
	TSC0 uint64
}

// Validate reports whether the configuration is physically usable.
func (c Config) Validate() error {
	if !(c.NominalHz > 0) {
		return fmt.Errorf("oscillator: NominalHz must be positive, got %v", c.NominalHz)
	}
	if c.RandomWalkStepPPM > 0 && !(c.RandomWalkStep > 0) {
		return fmt.Errorf("oscillator: RandomWalkStep must be positive when RandomWalkStepPPM > 0")
	}
	for i, s := range c.Sinusoids {
		if !(s.Period > 0) {
			return fmt.Errorf("oscillator: sinusoid %d has non-positive period %v", i, s.Period)
		}
	}
	if c.Temp.AmplitudePPM < 0 || c.Temp.Harmonic2 < 0 {
		return fmt.Errorf("oscillator: negative temperature-cycle amplitude")
	}
	if c.Temp.WeeklyMod < 0 || c.Temp.WeeklyMod >= 1 {
		return fmt.Errorf("oscillator: Temp.WeeklyMod %v outside [0,1)", c.Temp.WeeklyMod)
	}
	return nil
}

// Environment presets. The amplitudes are calibrated so the Allan
// deviation of the resulting clock error reproduces the shape of the
// paper's Figure 3: a minimum near 0.01 PPM around tau* = 1000 s and a
// rise bounded by 0.1 PPM at daily/weekly scales, with the laboratory
// (uncontrolled temperature) above the machine room at large scales and
// the machine room carrying the ~0.05 PPM 100-200 min oscillation at
// intermediate scales.

// Laboratory returns the oscillator configuration for the open-plan,
// non-airconditioned laboratory environment.
func Laboratory() Config {
	return Config{
		NominalHz: 548655270,
		SkewPPM:   48.7,
		Sinusoids: []Sinusoid{
			{AmplitudePPM: 0.05, Period: timebase.Day, Phase: 0.9},
			{AmplitudePPM: 0.015, Period: timebase.Week, Phase: 2.1},
			// Uncontrolled temperature: a strong fast component from
			// HVAC-free ambient swings, absent in the machine room.
			{AmplitudePPM: 0.038, Period: 2 * timebase.Hour, Phase: 0.3},
		},
		RandomWalkStep:     60,
		RandomWalkStepPPM:  0.004,
		RandomWalkBoundPPM: 0.03,
	}
}

// MachineRoom returns the oscillator configuration for the temperature
// controlled machine room (2 degC band), including the unexplained
// 100-200 minute oscillatory component of ~0.05 PPM amplitude described
// in Section 3.1.
func MachineRoom() Config {
	return Config{
		NominalHz: 548655270,
		SkewPPM:   48.7,
		Sinusoids: []Sinusoid{
			{AmplitudePPM: 0.018, Period: timebase.Day, Phase: 1.7},
			{AmplitudePPM: 0.007, Period: timebase.Week, Phase: 0.4},
			// The variable-period cooling oscillation; modelled with a
			// fixed 150 min period plus a second slightly detuned tone so
			// its envelope wanders as observed.
			{AmplitudePPM: 0.014, Period: 150 * timebase.Minute, Phase: 0.0},
			{AmplitudePPM: 0.007, Period: 118 * timebase.Minute, Phase: 1.2},
		},
		RandomWalkStep:     60,
		RandomWalkStepPPM:  0.0035,
		RandomWalkBoundPPM: 0.035,
	}
}

// term is one sinusoid with the constants its reads need computed
// once: a = FromPPM(AmplitudePPM), a/omega and cos(Phase), where
// omega = 2π/Period. Each is a subexpression a read would otherwise
// evaluate inline, kept in the same shape, so holding it changes no bit.
type term struct {
	Sinusoid
	a, aOverOmega, cosPhase float64
}

// quad holds four terms' omega and Phase in lanes, the layout cos4
// reads: lane i of quads[q] is terms[4q+i], and the last quad's unused
// lanes are zero.
type quad struct {
	omega, phase [4]float64
}

// Oscillator is a deterministic realization of a Config. It is not safe
// for concurrent use.
type Oscillator struct {
	cfg    Config
	gamma0 float64 // constant skew, dimensionless
	terms  []term  // Sinusoids plus the expanded temperature cycle
	quads  []quad  // the terms' cosine arguments, four to a quad

	// Random-walk frequency component, generated lazily in fixed steps.
	// rwRate[j] is the dimensionless rate offset during absolute step
	// k = rwBase+j (t in [k*h, (k+1)*h)); rwCum[j] is the integral of
	// the rate over absolute steps 0..k-1, in seconds. rwBase is the
	// absolute index of element 0: TrimBefore drops old steps so
	// streaming generation of arbitrarily long traces holds only a
	// bounded window of the walk.
	rwSrc  *rng.Source
	rwBase int
	rwRate []float64
	rwCum  []float64
}

// New constructs an Oscillator. The seed determines the random-walk
// sample path; all other components are deterministic functions of time.
func New(cfg Config, seed uint64) (*Oscillator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := &Oscillator{
		cfg:    cfg,
		gamma0: timebase.FromPPM(cfg.SkewPPM),
		rwSrc:  rng.New(seed),
		rwRate: []float64{0},
		rwCum:  []float64{0},
	}
	sins := slices.Concat(cfg.Sinusoids, cfg.Temp.expand())
	o.quads = make([]quad, (len(sins)+3)/4)
	for i, s := range sins {
		a, omega := timebase.FromPPM(s.AmplitudePPM), 2*math.Pi/s.Period
		o.terms = append(o.terms, term{s, a, a / omega, math.Cos(s.Phase)})
		o.quads[i/4].omega[i%4], o.quads[i/4].phase[i%4] = omega, s.Phase
	}
	return o, nil
}

// Config returns the configuration the oscillator was built from.
func (o *Oscillator) Config() Config { return o.cfg }

// MeanPeriod returns the true long-run mean period of the oscillator,
// i.e. the p of the SKM: 1/(f0*(1+gamma0)). Periodic and random-walk
// wander average to ~zero and do not shift the mean.
func (o *Oscillator) MeanPeriod() float64 {
	return 1 / (o.cfg.NominalHz * (1 + o.gamma0))
}

// wanderRate returns the instantaneous wander gamma_w(t) (dimensionless,
// excluding the constant skew).
func (o *Oscillator) wanderRate(t float64) float64 {
	w := 0.0
	for _, s := range o.terms {
		// Not omega*t: 2π·t/Period rounds differently.
		w += float64(s.a * math.Sin(2*math.Pi*t/s.Period+s.Phase))
	}
	if o.cfg.RandomWalkStepPPM > 0 {
		k := int(t / o.cfg.RandomWalkStep)
		o.extendRW(k)
		w += o.rwRate[k-o.rwBase]
	}
	return w
}

// Rate returns the instantaneous dimensionless rate error gamma(t) of the
// oscillator relative to nominal: f(t)/f0 - 1.
func (o *Oscillator) Rate(t float64) float64 {
	return o.gamma0 + o.wanderRate(t)
}

// extendRW generates random-walk steps up to and including absolute
// index k.
func (o *Oscillator) extendRW(k int) {
	if k < 0 {
		panic("oscillator: negative time queried for random walk")
	}
	if k < o.rwBase {
		panic(fmt.Sprintf("oscillator: random-walk step %d queried after TrimBefore dropped it (base %d)", k, o.rwBase))
	}
	h := o.cfg.RandomWalkStep
	step := timebase.FromPPM(o.cfg.RandomWalkStepPPM)
	// FromPPM is a product; rounded here, 2*bound below cannot fuse with it.
	bound := float64(timebase.FromPPM(o.cfg.RandomWalkBoundPPM))
	for o.rwBase+len(o.rwRate) <= k {
		prev := o.rwRate[len(o.rwRate)-1]
		next := prev + float64(step*o.rwSrc.StdNormal())
		// Reflect at the stability bound so the 0.1 PPM hardware
		// characterization cannot be violated by an unlucky sample path.
		if next > bound {
			next = float64(2*bound) - next
		}
		if next < -bound {
			next = float64(-2*bound) - next
		}
		o.rwCum = append(o.rwCum, o.rwCum[len(o.rwCum)-1]+float64(prev*h))
		o.rwRate = append(o.rwRate, next)
	}
}

// TrimBefore drops the cached random-walk steps strictly before true
// time t, keeping the oscillator usable for all queries at or after t
// (earlier queries panic). Streaming trace generation calls it as time
// advances, so the cache — the only state that otherwise grows with
// trace duration — stays a bounded window and multi-week generation
// runs in constant memory. Values are unaffected: a trimmed oscillator
// produces bit-identical stamps for the times it can still answer.
func (o *Oscillator) TrimBefore(t float64) {
	if o.cfg.RandomWalkStepPPM <= 0 || t <= 0 {
		return
	}
	k := int(t / o.cfg.RandomWalkStep)
	// Keep at least the latest generated step: appends continue from it.
	if max := o.rwBase + len(o.rwRate) - 1; k > max {
		k = max
	}
	d := k - o.rwBase
	if d <= 0 {
		return
	}
	copy(o.rwRate, o.rwRate[d:])
	copy(o.rwCum, o.rwCum[d:])
	o.rwRate = o.rwRate[:len(o.rwRate)-d]
	o.rwCum = o.rwCum[:len(o.rwCum)-d]
	o.rwBase = k
}

// RandomWalkCacheLen reports how many random-walk steps are currently
// cached — the diagnostic the constant-memory tests watch: without
// TrimBefore it grows one step per RandomWalkStep of generated time,
// with trimming it stays a bounded window.
func (o *Oscillator) RandomWalkCacheLen() int { return len(o.rwRate) }

// cos4 returns cos(ω·t+φ) for the four lanes of q, each bit for bit
// math.Cos(float64(ω·t)+φ). The kernel, where the CPU has one, takes the
// lanes whose argument is finite and below 2²⁹ in magnitude; the Go
// expression takes the rest.
func cos4(t float64, q *quad) [4]float64 {
	c, done := cosKernel(t, q)
	for i := range c {
		if done&(1<<i) == 0 {
			c[i] = math.Cos(float64(q.omega[i]*t) + q.phase[i])
		}
	}
	return c
}

// wanderIntegral returns the integral of the wander rate from 0 to t, in
// seconds, computed in closed form for the sinusoids and from the cached
// cumulative sums for the random walk. The sinusoids' cosines are taken
// four at a time (cos4) and summed term by term in order.
func (o *Oscillator) wanderIntegral(t float64) float64 {
	w := 0.0
	for q := range o.quads {
		c := cos4(t, &o.quads[q])
		for i, s := range o.terms[4*q : min(4*q+4, len(o.terms))] {
			w += float64(s.aOverOmega * (s.cosPhase - c[i]))
		}
	}
	if o.cfg.RandomWalkStepPPM > 0 {
		h := o.cfg.RandomWalkStep
		k := int(t / h)
		o.extendRW(k)
		w += o.rwCum[k-o.rwBase] + float64(o.rwRate[k-o.rwBase]*(t-float64(float64(k)*h)))
	}
	return w
}

// Phase returns the exact (fractional) cycle count elapsed since t = 0:
// Phi(t) = f0 * ((1+gamma0)*t + integral of wander). For t < 0 it
// extrapolates with the constant-skew rate only, which suffices for the
// small negative excursions used in tests.
func (o *Oscillator) Phase(t float64) float64 {
	if t < 0 {
		return o.cfg.NominalHz * (1 + o.gamma0) * t
	}
	return o.cfg.NominalHz * (float64((1+o.gamma0)*t) + o.wanderIntegral(t))
}

// ReadTSC returns the counter value at true time t, i.e. the hardware
// register read an application would perform.
func (o *Oscillator) ReadTSC(t float64) uint64 {
	ph := o.Phase(t)
	if ph < 0 {
		panic(fmt.Sprintf("oscillator: counter read before origin (t=%v)", t))
	}
	return o.cfg.TSC0 + uint64(ph)
}

// AverageRateError returns the mean dimensionless rate error over
// [t1, t2] relative to nominal, computed exactly from the phase. This is
// the reference value that per-interval rate estimators are judged
// against (the y_tau(t) of equation (4), with the clock being the raw
// counter scaled by the nominal period).
func (o *Oscillator) AverageRateError(t1, t2 float64) float64 {
	if t2 <= t1 {
		panic("oscillator: AverageRateError needs t2 > t1")
	}
	return (o.Phase(t2)-o.Phase(t1))/(o.cfg.NominalHz*(t2-t1)) - 1
}
