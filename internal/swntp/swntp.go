// Package swntp implements the baseline the paper argues against: a
// classic feedback-disciplined software clock in the style of ntpd
// (RFC 1305/5905). It is deliberately the *other* design point:
//
//   - offset-centric: the clock's rate is varied as a means to adjust
//     offset, so rate performance is erratic by construction;
//   - feedback: offsets are measured with the disciplined clock itself,
//     coupling estimation and control;
//   - step/slew: offsets beyond a threshold (128 ms) step the clock,
//     producing the resets the paper reports as its key reliability
//     failure.
//
// The implementation has the canonical 8-stage clock filter (minimum
// delay sample selection), a PLL for frequency/phase tracking with a
// bounded slew rate, and the step threshold. It consumes the same raw
// exchanges as the core engine so experiments can run both side by side
// on identical traces.
//
//repro:deterministic
package swntp

import (
	"fmt"
	"math"

	"repro/internal/timebase"
)

// Config parameterizes the discipline loop.
type Config struct {
	// PNominal is the assumed counter period (seconds per cycle).
	PNominal float64
	// PollPeriod is the nominal polling interval, which sets the PLL
	// time constant.
	PollPeriod float64
	// StepThreshold: measured offsets beyond this magnitude step the
	// clock instead of slewing. RFC default: 128 ms.
	StepThreshold float64
	// MaxSlewRate bounds the rate at which phase corrections are
	// amortized (dimensionless). Unix adjtime convention: 500 PPM.
	MaxSlewRate float64
	// MaxFreqAdj bounds the accumulated frequency correction. RFC
	// default: 500 PPM.
	MaxFreqAdj float64
	// PLLTimeConstant scales loop gain; larger is slower/smoother.
	PLLTimeConstant float64
	// FilterStages is the clock filter depth. RFC: 8.
	FilterStages int
}

// DefaultConfig returns RFC-style defaults.
func DefaultConfig(pNominal, poll float64) Config {
	return Config{
		PNominal:      pNominal,
		PollPeriod:    poll,
		StepThreshold: 0.128,
		MaxSlewRate:   500e-6,
		MaxFreqAdj:    500e-6,
		// The loop time constant must be much longer than the applied
		// update interval (roughly FilterStages polls, since only
		// newest-is-minimum samples are consumed) or the PLL oscillates;
		// ntpd uses comparably long constants.
		PLLTimeConstant: 32 * poll,
		FilterStages:    8,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case !(c.PNominal > 0):
		return fmt.Errorf("swntp: PNominal must be positive")
	case !(c.PollPeriod > 0):
		return fmt.Errorf("swntp: PollPeriod must be positive")
	case !(c.StepThreshold > 0):
		return fmt.Errorf("swntp: StepThreshold must be positive")
	case !(c.MaxSlewRate > 0):
		return fmt.Errorf("swntp: MaxSlewRate must be positive")
	case !(c.MaxFreqAdj > 0):
		return fmt.Errorf("swntp: MaxFreqAdj must be positive")
	case !(c.PLLTimeConstant > 0):
		return fmt.Errorf("swntp: PLLTimeConstant must be positive")
	case c.FilterStages < 1:
		return fmt.Errorf("swntp: FilterStages must be >= 1")
	}
	return nil
}

// sample is one clock-filter entry.
type sample struct {
	offset float64
	delay  float64
	at     float64 // clock time when taken
}

// Update reports what one exchange did to the discipline.
type Update struct {
	// MeasuredOffset and MeasuredDelay are the standard NTP per-exchange
	// statistics computed with the disciplined clock.
	MeasuredOffset, MeasuredDelay float64
	// FilterOffset is the offset of the minimum-delay filter sample that
	// drove the loop (NaN if the filter rejected the update).
	FilterOffset float64
	// Stepped reports a clock step (reset); Applied whether the loop
	// consumed the sample at all.
	Stepped bool
	Applied bool
	// Freq is the current frequency correction.
	Freq float64
}

// Clock is the feedback-disciplined software clock.
type Clock struct {
	cfg Config

	initialized bool
	counterBase uint64
	base        float64 // clock reading at counterBase
	freq        float64 // current frequency correction (dimensionless)
	residual    float64 // pending phase correction to amortize
	lastCounter uint64

	filter []sample
	steps  int
}

// New constructs a clock; it reads 0 until the first exchange sets it.
func New(cfg Config) (*Clock, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Clock{cfg: cfg}, nil
}

// Steps returns the number of clock steps (resets) so far.
func (c *Clock) Steps() int { return c.steps }

// Read returns the disciplined clock's value at the given counter
// reading. Phase corrections are amortized at the bounded slew rate from
// the moment they are scheduled.
func (c *Clock) Read(counter uint64) float64 {
	if !c.initialized {
		return 0
	}
	dt := timebase.CounterSpan(c.counterBase, counter, c.cfg.PNominal)
	raw := c.base + float64(dt*(1+c.freq))
	if c.residual == 0 {
		return raw
	}
	// Amortize the residual: consumed at MaxSlewRate from counterBase.
	avail := c.cfg.MaxSlewRate * dt
	if math.Abs(c.residual) <= avail {
		return raw + c.residual
	}
	return raw + math.Copysign(avail, c.residual)
}

// rebase moves the clock origin to the given counter, folding in the
// consumed part of the residual so Read stays continuous.
func (c *Clock) rebase(counter uint64) {
	now := c.Read(counter)
	dt := timebase.CounterSpan(c.counterBase, counter, c.cfg.PNominal)
	consumed := now - (c.base + float64(dt*(1+c.freq)))
	c.residual -= consumed
	if math.Abs(c.residual) < 1e-12 {
		c.residual = 0
	}
	c.base = now
	c.counterBase = counter
}

// ProcessExchange ingests one raw exchange: host counter stamps ta, tf
// and server stamps tb, te. It computes the standard NTP offset/delay
// with the disciplined clock's own readings (the feedback design),
// pushes them through the clock filter, and adjusts the clock.
func (c *Clock) ProcessExchange(ta, tf uint64, tb, te float64) Update {
	if tf <= ta {
		return Update{}
	}
	if !c.initialized {
		// First exchange: set the clock outright from the server.
		c.initialized = true
		c.counterBase = tf
		c.base = te + float64(timebase.CounterSpan(ta, tf, c.cfg.PNominal)/2)
		c.lastCounter = tf
		return Update{Stepped: true, Applied: true}
	}

	t1 := c.Read(ta)
	t4 := c.Read(tf)
	offset := ((tb - t1) + (te - t4)) / 2
	delay := (t4 - t1) - (te - tb)
	if delay < 0 {
		delay = 0
	}
	up := Update{MeasuredOffset: offset, MeasuredDelay: delay, FilterOffset: math.NaN(), Freq: c.freq}

	// Clock filter: keep the last FilterStages samples, use the
	// minimum-delay one, and only if it is new (its offset has not been
	// used before — approximated by requiring it to be the latest
	// minimum).
	c.filter = append(c.filter, sample{offset: offset, delay: delay, at: t4})
	if len(c.filter) > c.cfg.FilterStages {
		c.filter = c.filter[1:]
	}
	best := 0
	for i, s := range c.filter {
		if s.delay < c.filter[best].delay {
			best = i
		}
	}
	sel := c.filter[best]
	if best != len(c.filter)-1 {
		// Minimum-delay sample already acted on earlier; popcorn-style
		// suppression: do nothing this round.
		return up
	}
	up.FilterOffset = sel.offset
	up.Applied = true

	c.rebase(tf)
	if math.Abs(sel.offset) > c.cfg.StepThreshold {
		// Step: the reset behaviour the paper criticizes.
		c.base += sel.offset
		c.residual = 0
		c.freq = clamp(c.freq, c.cfg.MaxFreqAdj)
		c.steps++
		c.filter = c.filter[:0]
		up.Stepped = true
		c.lastCounter = tf
		up.Freq = c.freq
		return up
	}

	// PLL: phase correction scheduled for amortized slewing, frequency
	// correction integrating the offset over the loop time constant.
	dt := timebase.CounterSpan(c.lastCounter, tf, c.cfg.PNominal)
	if dt <= 0 {
		dt = c.cfg.PollPeriod
	}
	tc := c.cfg.PLLTimeConstant
	c.residual += float64(sel.offset / 2)
	c.freq = clamp(c.freq+sel.offset*dt/(tc*tc), c.cfg.MaxFreqAdj)
	c.lastCounter = tf
	up.Freq = c.freq
	return up
}

func clamp(v, bound float64) float64 {
	if v > bound {
		return bound
	}
	if v < -bound {
		return -bound
	}
	return v
}
