// Package timebase provides the elementary time and rate quantities used
// throughout the TSC-NTP clock reproduction: simulation time, counter
// values, rate errors in parts per million (PPM), and the conversions
// between them.
//
// Conventions:
//
//   - True (simulated) time is a float64 number of seconds since the
//     simulation origin t = 0. Keeping the origin at zero (rather than the
//     UNIX epoch) preserves sub-nanosecond float64 resolution over
//     multi-month runs: at t = 10^7 s the ulp is ~2 ns, far below the 100 ns
//     reference accuracy of the simulated DAG monitor.
//
//   - Counter (TSC) values are uint64 cycle counts.
//
//   - Rates and rate errors are dimensionless; the PPM helpers exist only
//     for presentation and parameter entry.
package timebase

import (
	"fmt"
	"math"
)

// Seconds is a true-time instant or interval in seconds since the
// simulation origin. It is a distinct type so that counter values and
// seconds cannot be confused at call sites.
type Seconds = float64

// Common interval constants, in seconds.
const (
	Millisecond = 1e-3
	Microsecond = 1e-6
	Nanosecond  = 1e-9

	Minute = 60.0
	Hour   = 3600.0
	Day    = 86400.0
	Week   = 7 * Day
)

// PPM converts a dimensionless rate error to parts per million.
func PPM(rate float64) float64 { return rate * 1e6 }

// FromPPM converts a parts-per-million value to a dimensionless rate error.
func FromPPM(ppm float64) float64 { return ppm * 1e-6 }

// OffsetAtRate returns the absolute time error accumulated over an
// interval dt at a constant rate error (Table 1 of the paper):
// delta(offset) = delta(t) * rateError.
func OffsetAtRate(dt Seconds, rateError float64) Seconds { return dt * rateError }

// CounterSpan converts a span of counter cycles to seconds using the
// period estimate p (seconds per cycle). The subtraction is performed in
// uint64 space first to avoid losing precision for large counts.
func CounterSpan(from, to uint64, p float64) Seconds {
	if to >= from {
		return float64(to-from) * p
	}
	return -float64(from-to) * p
}

// FormatDuration renders a duration in seconds using the most readable
// engineering unit. It is intended for experiment output, mirroring the
// paper's mixed µs/ms/s axes.
func FormatDuration(dt Seconds) string {
	ad := math.Abs(dt)
	switch {
	case ad == 0:
		return "0s"
	case ad < Microsecond:
		return fmt.Sprintf("%.3gns", dt/Nanosecond)
	case ad < Millisecond:
		return fmt.Sprintf("%.3gµs", dt/Microsecond)
	case ad < 1:
		return fmt.Sprintf("%.3gms", dt/Millisecond)
	case ad < Minute:
		return fmt.Sprintf("%.3gs", dt)
	case ad < Hour:
		return fmt.Sprintf("%.3gmin", dt/Minute)
	case ad < Day:
		return fmt.Sprintf("%.3gh", dt/Hour)
	default:
		return fmt.Sprintf("%.3gd", dt/Day)
	}
}
