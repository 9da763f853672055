package stats

// Online accumulators: the streaming half of the package. The batch
// order statistics above need the full sample resident and a sort; the
// types here fold one observation at a time in O(1) memory, which is
// what lets multi-week experiment reports run at constant memory. The
// quantile accumulators implement the P² algorithm (Jain & Chlamtac,
// CACM 1985): five markers track the target quantile and its
// neighborhood, adjusted parabolically as observations arrive. P² only
// ever starts warm, from the exact order statistics of a bounded
// prefix; past that prefix it is an approximation, and stream_test.go
// documents and enforces its tolerance against the exact Sorted
// results on random and adversarial inputs.

import (
	"fmt"
	"math"
)

// p2Quantile estimates a single quantile online with the P² algorithm:
// five markers whose heights converge to the p-quantile and its
// bracketing positions, O(1) memory and O(1) per observation. It only
// ever starts warm: newP2Quantile places the markers on the exact order
// statistics of a sorted prefix.
type p2Quantile struct {
	q   [5]float64 // marker heights
	pos [5]float64 // marker positions (1-based)
	des [5]float64 // desired marker positions
	inc [5]float64 // desired position increments per observation
}

// newP2Quantile returns an estimator for the quantile p in (0, 1),
// e.g. 0.5 for the median, warm-started from a sorted sample as if its
// observations had been folded already: the markers are placed on the
// exact order statistics at their desired positions. Folding a bounded
// exact prefix and warm-starting P² from it removes the algorithm's
// cold-start error on autocorrelated series — the hybrid the
// StreamingQuantiles type packages. It panics on out-of-range p and on
// a sample of fewer than five observations.
func newP2Quantile(p float64, sorted Sorted) *p2Quantile {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("stats: P2 quantile %v outside (0,1)", p))
	}
	n := len(sorted)
	if n < 5 {
		panic("stats: P2 warm start needs at least 5 observations")
	}
	s := &p2Quantile{}
	s.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	for i, d := range s.inc {
		want := 1 + float64(n-1)*d
		s.des[i] = want
		pos := int(math.Round(want))
		// Clamp to strict monotonicity with the ends pinned.
		if lo := i + 1; pos < lo {
			pos = lo
		}
		if hi := n - (4 - i); pos > hi {
			pos = hi
		}
		if i > 0 && float64(pos) <= s.pos[i-1] {
			pos = int(s.pos[i-1]) + 1
		}
		s.pos[i] = float64(pos)
		s.q[i] = sorted[pos-1]
	}
	return s
}

// Add folds one observation.
func (s *p2Quantile) Add(x float64) {
	// Locate the cell and update the extreme markers.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x >= s.q[4]:
		if x > s.q[4] {
			s.q[4] = x
		}
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < s.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		s.pos[i]++
	}
	for i := range s.des {
		s.des[i] += s.inc[i]
	}

	// Adjust the interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := s.des[i] - s.pos[i]
		if !((d >= 1 && s.pos[i+1]-s.pos[i] > 1) || (d <= -1 && s.pos[i-1]-s.pos[i] < -1)) {
			continue
		}
		sign := 1.0
		if d < 0 {
			sign = -1
		}
		// Piecewise-parabolic prediction; fall back to linear when it
		// would leave the bracketing heights.
		qi := s.parabolic(i, sign)
		if !(s.q[i-1] < qi && qi < s.q[i+1]) {
			qi = s.linear(i, sign)
		}
		s.q[i] = qi
		s.pos[i] += sign
	}
}

func (s *p2Quantile) parabolic(i int, d float64) float64 {
	q, n := &s.q, &s.pos
	return q[i] + d/(n[i+1]-n[i-1])*
		((n[i]-n[i-1]+d)*(q[i+1]-q[i])/(n[i+1]-n[i])+
			(n[i+1]-n[i]-d)*(q[i]-q[i-1])/(n[i]-n[i-1]))
}

func (s *p2Quantile) linear(i int, d float64) float64 {
	q, n := &s.q, &s.pos
	j := i + int(d)
	return q[i] + d*(q[j]-q[i])/(n[j]-n[i])
}

// Value returns the current quantile estimate.
func (s *p2Quantile) Value() float64 { return s.q[2] }

// DefaultExactPrefix is the exact-prefix budget of StreamingQuantiles:
// 32k float64s, 256 KiB — a fixed constant independent of stream
// length. Experiment report series below it (every quick-mode run, and
// every windowed accumulator) are summarized exactly; longer streams
// pay P²'s documented approximation only past this horizon, warm-
// started from an already-converged marker placement.
const DefaultExactPrefix = 32768

// StreamingQuantiles estimates several quantiles of one stream in
// bounded memory with a hybrid scheme: observations are buffered
// exactly up to a fixed prefix budget; if the stream outgrows it, the
// buffer is sorted once, each level's P² estimator is warm-started
// from the exact order statistics, the buffer is released, and
// subsequent observations fold in O(1). Short streams (the common case
// for report summaries) therefore get *exact* answers, and long
// streams get P² without its cold-start error on autocorrelated
// series — at a memory ceiling that never depends on the stream.
type StreamingQuantiles struct {
	levels []float64
	limit  int

	buf    []float64 // exact prefix; nil once switched to P²
	sorted bool      // buf is currently sorted
	ests   []*p2Quantile
	n      int
}

// NewStreamingQuantiles returns an empty accumulator for the given
// quantile levels in (0, 1), with the DefaultExactPrefix budget. It
// panics on out-of-range levels.
func NewStreamingQuantiles(levels ...float64) *StreamingQuantiles {
	s := &StreamingQuantiles{
		levels: append([]float64(nil), levels...),
		limit:  DefaultExactPrefix,
	}
	for _, p := range levels {
		if !(p > 0 && p < 1) {
			panic(fmt.Sprintf("stats: quantile level %v outside (0,1)", p))
		}
	}
	return s
}

// Add folds one observation.
func (s *StreamingQuantiles) Add(x float64) {
	s.n++
	if s.ests != nil {
		for _, e := range s.ests {
			e.Add(x)
		}
		return
	}
	s.buf = append(s.buf, x)
	s.sorted = false
	if len(s.buf) < s.limit {
		return
	}
	// Switch regimes: one sort, then exact warm starts.
	sorted := NewSorted(s.buf)
	s.ests = make([]*p2Quantile, len(s.levels))
	for i, p := range s.levels {
		s.ests[i] = newP2Quantile(p, sorted)
	}
	s.buf, s.sorted = nil, false
}

// N returns the number of observations folded.
func (s *StreamingQuantiles) N() int { return s.n }

// Value returns the current estimate of level i (indexing the levels
// passed at construction). It panics on an empty accumulator.
func (s *StreamingQuantiles) Value(i int) float64 {
	if s.n == 0 {
		panic("stats: StreamingQuantiles.Value of empty accumulator")
	}
	if s.ests != nil {
		return s.ests[i].Value()
	}
	if !s.sorted {
		s.buf = []float64(NewSorted(s.buf))
		s.sorted = true
	}
	return Sorted(s.buf).Percentile(s.levels[i] * 100)
}

// ErrFold summarizes a series of signed errors against ground truth
// online, the one way the evaluation states accuracy: the paper's five
// percentile curves (PaperPercentiles), the median and 99th percentile
// of |x|, and the exact maximum of |x|. Each side is one
// StreamingQuantiles, so a series shorter than DefaultExactPrefix is
// summarized exactly, and each level is its own P² estimator, so it
// reads what a one-level accumulator fed the same series would.
type ErrFold struct {
	signed, abs *StreamingQuantiles
	max         float64
}

// NewErrFold returns an empty fold.
func NewErrFold() *ErrFold {
	return &ErrFold{signed: NewStreamingQuantiles(0.01, 0.25, 0.5, 0.75, 0.99), abs: NewStreamingQuantiles(0.5, 0.99)}
}

// Add folds one signed error.
func (f *ErrFold) Add(x float64) {
	a := math.Abs(x)
	f.signed.Add(x)
	f.abs.Add(a)
	f.max = max(f.max, a)
}

// N returns the number of errors folded.
func (f *ErrFold) N() int { return f.signed.N() }

// ErrSummary is what an ErrFold reports: the signed percentiles P01 …
// P99 and the |error| median, 99th percentile and maximum.
type ErrSummary struct {
	P01, P25, P50, P75, P99 float64
	AbsP50, AbsP99, AbsMax  float64
}

// IQR returns the inter-quartile range of the signed error.
func (s ErrSummary) IQR() float64 { return s.P75 - s.P25 }

// Summary returns the current estimates. It panics on an empty fold.
func (f *ErrFold) Summary() ErrSummary {
	q, a := f.signed, f.abs
	return ErrSummary{
		P01: q.Value(0), P25: q.Value(1), P50: q.Value(2), P75: q.Value(3), P99: q.Value(4),
		AbsP50: a.Value(0), AbsP99: a.Value(1), AbsMax: f.max,
	}
}
