package experiments

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/timebase"
)

// Relation is how a Check compares its value with its bound(s).
type Relation uint8

// The closed set of relations.
const (
	AtMost  Relation = iota // Value ≤ Hi
	Below                   // Value < Hi
	AtLeast                 // Value ≥ Lo
	Above                   // Value > Lo
	Within                  // Lo ≤ Value ≤ Hi
	Equals                  // Value = Lo
)

// Unit says what a Check's numbers measure, and so how they print.
type Unit uint8

// The units the evaluation's checks are stated in.
const (
	Seconds Unit = iota // a duration or time error
	PPM                 // a dimensionless rate error, printed in parts per million
	Ratio               // a quotient of two like quantities
	Share               // a part of a whole in [0, 1], printed in percent
	Count               // a number of things
)

// Check is one shape assertion, as data: a property of the paper's
// result that the reproduction must preserve, stated as a measured
// value, the bound(s) it is held to and the relation between them. The
// verdict and both printed texts are derived from these fields, so the
// bound a report prints is the bound that was enforced.
type Check struct {
	Name   string
	Value  float64
	Rel    Relation
	Lo, Hi float64 // the bound(s) Rel names; the other is unused
	Unit   Unit
}

// Pass reports whether Value satisfies the relation. A value that is
// not a finite number never passes.
func (c Check) Pass() bool {
	v := c.Value
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	switch c.Rel {
	case AtMost:
		return v <= c.Hi
	case Below:
		return v < c.Hi
	case AtLeast:
		return v >= c.Lo
	case Above:
		return v > c.Lo
	case Within:
		return c.Lo <= v && v <= c.Hi
	case Equals:
		return v == c.Lo
	}
	return false
}

// Want renders the relation and its bound(s).
func (c Check) Want() string {
	switch c.Rel {
	case AtMost:
		return "≤ " + c.Unit.format(c.Hi)
	case Below:
		return "< " + c.Unit.format(c.Hi)
	case AtLeast:
		return "≥ " + c.Unit.format(c.Lo)
	case Above:
		return "> " + c.Unit.format(c.Lo)
	case Within:
		return fmt.Sprintf("∈ [%s, %s]", c.Unit.format(c.Lo), c.Unit.format(c.Hi))
	case Equals:
		return "= " + c.Unit.format(c.Lo)
	}
	return fmt.Sprintf("relation %d", c.Rel)
}

// Got renders the measured value.
func (c Check) Got() string { return c.Unit.format(c.Value) }

// format prints v to three significant digits in the unit's notation.
func (u Unit) format(v float64) string {
	switch u {
	case Seconds:
		return timebase.FormatDuration(v)
	case PPM:
		return sig3(timebase.PPM(v)) + " PPM"
	case Share:
		return sig3(100*v) + "%"
	case Count:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return sig3(v) + "×"
}

// sig3 is %.3g without the exponent form for four-digit-and-up values.
func sig3(v float64) string {
	if a := math.Abs(v); a >= 1000 && a < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}

func (r *Report) check(name string, v float64, rel Relation, lo, hi float64, u Unit) {
	r.Checks = append(r.Checks, Check{Name: name, Value: v, Rel: rel, Lo: lo, Hi: hi, Unit: u})
}

// The six ways an experiment states a bound, one per relation.
func (r *Report) atMost(name string, v, hi float64, u Unit)  { r.check(name, v, AtMost, 0, hi, u) }
func (r *Report) below(name string, v, hi float64, u Unit)   { r.check(name, v, Below, 0, hi, u) }
func (r *Report) atLeast(name string, v, lo float64, u Unit) { r.check(name, v, AtLeast, lo, 0, u) }
func (r *Report) above(name string, v, lo float64, u Unit)   { r.check(name, v, Above, lo, 0, u) }
func (r *Report) equals(name string, v, want float64, u Unit) {
	r.check(name, v, Equals, want, 0, u)
}
func (r *Report) within(name string, v, lo, hi float64, u Unit) {
	r.check(name, v, Within, lo, hi, u)
}
