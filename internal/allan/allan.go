// Package allan implements Allan variance estimation, the traditional
// characterization of oscillator stability used in the paper's Section 3
// (Figure 3) to identify the SKM scale τ* and the 0.1 PPM stability
// bound. The Allan deviation at scale τ is interpreted as the typical
// size of the rate error y_τ(t) measured over intervals of length τ
// (equation 4); it is essentially a Haar wavelet spectral analysis.
//
//repro:deterministic
package allan

import (
	"fmt"
	"math"
)

// Point is one (τ, deviation) sample of a stability curve.
type Point struct {
	Tau       float64 // averaging scale, seconds
	Deviation float64 // Allan deviation of y_τ (dimensionless rate error)
	N         int     // number of squared differences averaged
}

// Deviation computes the overlapping Allan deviation of a uniformly
// sampled clock error series x (seconds), with sample spacing tau0, at
// scale τ = m·tau0:
//
//	σ²_y(τ) = < (x_{k+2m} − 2 x_{k+m} + x_k)² > / (2 τ²)
//
// It returns an error if the series is too short for the requested m.
func Deviation(x []float64, tau0 float64, m int) (Point, error) {
	if tau0 <= 0 {
		return Point{}, fmt.Errorf("allan: non-positive sample spacing")
	}
	if m < 1 {
		return Point{}, fmt.Errorf("allan: m must be >= 1")
	}
	n := len(x) - 2*m
	if n < 1 {
		return Point{}, fmt.Errorf("allan: series of %d too short for m=%d", len(x), m)
	}
	tau := float64(m) * tau0
	var acc float64
	for k := 0; k < n; k++ {
		d := x[k+2*m] - 2*x[k+m] + x[k]
		acc += float64(d * d)
	}
	av := acc / (2 * float64(n) * tau * tau)
	return Point{Tau: tau, Deviation: math.Sqrt(av), N: n}, nil
}

// Curve computes the Allan deviation over a logarithmic grid of scales
// from tau0 up to the largest m the series supports, with the given
// number of points per decade (4 is typical for stability plots). The
// grid is exactly CurveGrid's — streaming folds sized from the sample
// count land on the identical scales.
func Curve(x []float64, tau0 float64, perDecade int) ([]Point, error) {
	ms, err := CurveGrid(len(x), perDecade)
	if err != nil {
		return nil, err
	}
	pts := make([]Point, 0, len(ms))
	for _, m := range ms {
		p, err := Deviation(x, tau0, m)
		if err != nil {
			return nil, err
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// Resample converts an irregularly sampled error series (times ts,
// values xs) into a uniform series with spacing tau0 by linear
// interpolation. Times must be strictly increasing. The paper's traces
// are near-uniform (one sample per NTP poll) so the interpolation error
// is negligible at the scales of interest.
func Resample(ts, xs []float64, tau0 float64) ([]float64, error) {
	if len(ts) != len(xs) {
		return nil, fmt.Errorf("allan: length mismatch %d vs %d", len(ts), len(xs))
	}
	if len(ts) < 2 {
		return nil, fmt.Errorf("allan: need at least 2 samples")
	}
	if tau0 <= 0 {
		return nil, fmt.Errorf("allan: non-positive spacing")
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			return nil, fmt.Errorf("allan: times not strictly increasing at %d", i)
		}
	}
	n := int((ts[len(ts)-1]-ts[0])/tau0) + 1
	out := make([]float64, 0, n)
	j := 0
	for k := 0; k < n; k++ {
		t := ts[0] + float64(float64(k)*tau0)
		for j+1 < len(ts)-1 && ts[j+1] < t {
			j++
		}
		span := ts[j+1] - ts[j]
		w := (t - ts[j]) / span
		if w < 0 {
			w = 0
		}
		if w > 1 {
			w = 1
		}
		out = append(out, float64(xs[j]*(1-w))+float64(xs[j+1]*w))
	}
	return out, nil
}
