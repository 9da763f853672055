package allan

// Online Allan estimation: the streaming half of the package. The batch
// Deviation/Curve/Resample need the full uniform series resident; the
// Resampler and Fold here consume one sample at a time and agree with
// the batch results bit for bit (stream_test.go pins it). Memory is
// O(2·mMax) — set by the largest averaging scale requested, independent
// of trace length — so a multi-week stability analysis holds a few
// thousand floats instead of the series.

import (
	"fmt"
	"math"
)

// Resampler converts an irregularly sampled error series into a
// uniform one incrementally, emitting each uniform sample to the sink
// as soon as its bracketing input points exist. It reproduces the batch
// Resample exactly: the same interval selection, the same interpolation
// arithmetic, including the final-interval clamp for the rounding case
// where the last uniform time lands past the last input.
type Resampler struct {
	tau0 float64
	sink func(float64) error

	n            int     // input points pushed
	t0           float64 // first input time
	paT, paX     float64 // second-to-last input point
	pbT, pbX     float64 // last input point
	k            int     // next uniform index to emit
	totalEmitted int
}

// NewResampler returns a resampler with the given uniform spacing,
// delivering samples to sink in order.
func NewResampler(tau0 float64, sink func(float64) error) (*Resampler, error) {
	if tau0 <= 0 {
		return nil, fmt.Errorf("allan: non-positive spacing")
	}
	if sink == nil {
		return nil, fmt.Errorf("allan: nil sink")
	}
	return &Resampler{tau0: tau0, sink: sink}, nil
}

// Push feeds the next input point. Times must be strictly increasing.
func (r *Resampler) Push(t, x float64) error {
	if r.n > 0 && t <= r.pbT {
		return fmt.Errorf("allan: times not strictly increasing at point %d", r.n)
	}
	if r.n == 0 {
		r.t0, r.pbT, r.pbX = t, t, x
		r.n = 1
		return nil
	}
	// Emit every uniform sample bracketed by (pb, the new point): the
	// batch walk selects exactly the first input at or past each
	// uniform time as the interval's right endpoint.
	aT, aX := r.pbT, r.pbX
	for {
		u := r.t0 + float64(r.k)*r.tau0
		if u > t {
			break
		}
		w := (u - aT) / (t - aT)
		if w < 0 {
			w = 0
		}
		if err := r.sink(aX*(1-w) + x*w); err != nil {
			return err
		}
		r.k++
		r.totalEmitted++
	}
	r.paT, r.paX = aT, aX
	r.pbT, r.pbX = t, x
	r.n++
	return nil
}

// Finish flushes the rounding tail: the batch resampler emits
// n = (tLast−t0)/τ0 + 1 samples, and floating-point truncation can
// leave the last one just past the final input point, interpolated in
// the final interval with the weight clamped to 1. It returns an error
// when fewer than two points were pushed, like the batch Resample.
func (r *Resampler) Finish() error {
	if r.n < 2 {
		return fmt.Errorf("allan: need at least 2 samples")
	}
	total := int((r.pbT-r.t0)/r.tau0) + 1
	for ; r.k < total; r.k++ {
		u := r.t0 + float64(r.k)*r.tau0
		w := (u - r.paT) / (r.pbT - r.paT)
		if w < 0 {
			w = 0
		}
		if w > 1 {
			w = 1
		}
		if err := r.sink(r.paX*(1-w) + r.pbX*w); err != nil {
			return err
		}
		r.totalEmitted++
	}
	return nil
}

// Fold accumulates the overlapping Allan deviation of a uniformly
// sampled series at a fixed grid of scales, one sample at a time. For
// each scale m it maintains the running sum of squared second
// differences (x_{k+2m} − 2x_{k+m} + x_k)², added in the same order as
// the batch Deviation, so the results are bit-identical. The ring of
// recent samples is sized by the largest m — the memory ceiling is
// 2·mMax+1 floats regardless of how many samples are folded.
type Fold struct {
	tau0 float64
	ms   []int
	acc  []float64
	cnt  []int

	ring []float64
	n    int // samples folded
}

// NewFold returns a fold over the given scales m (in samples); the
// Allan scale of entry i is τ = ms[i]·tau0.
func NewFold(tau0 float64, ms []int) (*Fold, error) {
	if tau0 <= 0 {
		return nil, fmt.Errorf("allan: non-positive sample spacing")
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("allan: no scales")
	}
	maxM := 0
	for _, m := range ms {
		if m < 1 {
			return nil, fmt.Errorf("allan: m must be >= 1, got %d", m)
		}
		if m > maxM {
			maxM = m
		}
	}
	return &Fold{
		tau0: tau0,
		ms:   append([]int(nil), ms...),
		acc:  make([]float64, len(ms)),
		cnt:  make([]int, len(ms)),
		ring: make([]float64, 2*maxM+1),
	}, nil
}

// Add folds one uniform sample.
func (f *Fold) Add(x float64) {
	f.ring[f.n%len(f.ring)] = x
	for i, m := range f.ms {
		if f.n < 2*m {
			continue
		}
		d := x - 2*f.ring[(f.n-m)%len(f.ring)] + f.ring[(f.n-2*m)%len(f.ring)]
		f.acc[i] += d * d
		f.cnt[i]++
	}
	f.n++
}

// N returns the number of samples folded.
func (f *Fold) N() int { return f.n }

// Points returns the current Allan curve: one Point per scale that has
// accumulated at least one squared difference, in grid order, agreeing
// bit for bit with the batch Deviation over the same samples.
func (f *Fold) Points() []Point {
	var pts []Point
	for i, m := range f.ms {
		if f.cnt[i] < 1 {
			continue
		}
		tau := float64(m) * f.tau0
		av := f.acc[i] / (2 * float64(f.cnt[i]) * tau * tau)
		pts = append(pts, Point{Tau: tau, Deviation: math.Sqrt(av), N: f.cnt[i]})
	}
	return pts
}

// CurveGrid returns the scale grid the batch Curve evaluates for a
// series of nSamples uniform samples: a logarithmic ladder with the
// given points per decade, capped at the largest supported m. Streaming
// callers that know the sample count up front (duration/τ0, as the
// experiment harness does) get a curve on exactly the batch grid.
func CurveGrid(nSamples, perDecade int) ([]int, error) {
	if perDecade < 1 {
		return nil, fmt.Errorf("allan: perDecade must be >= 1")
	}
	maxM := (nSamples - 1) / 2
	if maxM < 1 {
		return nil, fmt.Errorf("allan: series too short (%d samples)", nSamples)
	}
	var ms []int
	seen := map[int]bool{}
	for e := 0.0; ; e += 1.0 / float64(perDecade) {
		m := int(math.Pow(10, e) + 0.5)
		if m > maxM {
			break
		}
		if seen[m] {
			continue
		}
		seen[m] = true
		ms = append(ms, m)
	}
	return ms, nil
}
