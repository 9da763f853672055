package stats

// The streaming half of the package. The batch order statistics above
// need the full sample resident and a sort; ErrFold folds one value at
// a time in bounded memory, which is what lets multi-week experiment
// reports run at constant memory. It is exact over a bounded prefix and
// then a log-bucketed histogram in the style of DDSketch and
// HdrHistogram: every level it reports past the prefix is within
// 2⁻⁸·|x| + 1 ns of the exact order statistic, whatever the input's
// shape or order, and two folds merge into the fold of both series.

import (
	"math"
	"sort"
)

// exactPrefix is the number of values an ErrFold keeps exactly: 32 768
// float64s, 256 KiB. A series no longer than this — a two-day trace at
// 16 s polling (10 800 exchanges) and every windowed accumulator — is
// summarized by Sorted.Percentile of its own values.
const exactPrefix = 32768

const (
	// bucketShift keeps the exponent and the top 7 mantissa bits of
	// |x|: a bucket spans 2⁻⁷ of its octave, so its midpoint is within
	// 2⁻⁸·|x| of every value x in it.
	bucketShift = 45
	// zeroBelow is the zero bucket's edge: a |x| below 1 ns counts as 0.
	zeroBelow = 1e-9
)

// bucketKey is the bucket of a non-negative a ≥ zeroBelow.
func bucketKey(a float64) int { return int(math.Float64bits(a) >> bucketShift) }

// bucketMid is the value a bucket reports: its midpoint.
func bucketMid(k int) float64 {
	return math.Float64frombits(uint64(k)<<bucketShift | 1<<(bucketShift-1))
}

// counts is a dense run of bucket counts: c[i] counts key lo+i.
type counts struct {
	lo int
	c  []uint64
}

func (b *counts) add(k int, n uint64) {
	switch {
	case len(b.c) == 0:
		b.lo, b.c = k, make([]uint64, 1)
	case k < b.lo:
		c := make([]uint64, b.lo-k+len(b.c))
		copy(c[b.lo-k:], b.c)
		b.lo, b.c = k, c
	case k >= b.lo+len(b.c):
		b.c = append(b.c, make([]uint64, k-b.lo-len(b.c)+1)...)
	}
	b.c[k-b.lo] += n
}

// merge adds g's counts to b's.
func (b *counts) merge(g *counts) {
	for i, c := range g.c {
		if c != 0 {
			b.add(g.lo+i, c)
		}
	}
}

func (b *counts) get(k int) uint64 {
	if i := k - b.lo; i >= 0 && i < len(b.c) {
		return b.c[i]
	}
	return 0
}

// ErrFold summarizes a series of signed errors against ground truth
// online, the one way the evaluation states accuracy: the paper's five
// percentile curves (levels 1, 25, 50, 75 and 99), the median and 99th
// percentile of |x|, and the exact maximum of |x|. Its summary is a function of
// the multiset of values folded, not of their order or of how they were
// split between folds later merged:
//
//   - up to exactPrefix values it keeps them, and every level is
//     Sorted.Percentile of the values (or of their |x|);
//   - past that it keeps a count per bucket of |x| on each side of a
//     zero bucket (|x| < 1 ns), and a level is the midpoint of the
//     bucket that holds the value of rank round(p·(n−1)), so it lies
//     within 2⁻⁸·|x| + 1 ns of the exact order statistics either side
//     of that rank.
type ErrFold struct {
	n   int
	max float64   // exact max |x|
	buf []float64 // the exact prefix; nil past it

	// Past the prefix: counts by bucketKey(|x|).
	zero     uint64
	neg, pos counts
}

// NewErrFold returns an empty fold.
func NewErrFold() *ErrFold { return &ErrFold{} }

// Add folds one signed error.
func (f *ErrFold) Add(x float64) {
	f.n++
	f.max = max(f.max, math.Abs(x))
	if f.n <= exactPrefix {
		f.buf = append(f.buf, x)
		return
	}
	f.spill()
	f.count(x)
}

// Merge folds every value g has folded into f, as if each had been
// added to f. g is left as it was.
func (f *ErrFold) Merge(g *ErrFold) {
	f.n += g.n
	f.max = max(f.max, g.max)
	if f.n <= exactPrefix {
		f.buf = append(f.buf, g.buf...)
		return
	}
	f.spill()
	for _, x := range g.buf {
		f.count(x)
	}
	f.zero += g.zero
	f.neg.merge(&g.neg)
	f.pos.merge(&g.pos)
}

// spill moves the exact prefix into the buckets.
func (f *ErrFold) spill() {
	for _, x := range f.buf {
		f.count(x)
	}
	f.buf = nil
}

func (f *ErrFold) count(x float64) {
	switch a := math.Abs(x); {
	case a < zeroBelow:
		f.zero++
	case x < 0:
		f.neg.add(bucketKey(a), 1)
	default:
		f.pos.add(bucketKey(a), 1)
	}
}

// N returns the number of errors folded.
func (f *ErrFold) N() int { return f.n }

// level validates p in [0, 1] on a non-empty fold and returns the rank
// a bucketed fold reads, round(p·(n−1)).
func (f *ErrFold) level(p float64) uint64 {
	checkPercentile(p * 100)
	if f.n == 0 {
		panic("stats: quantile of an empty ErrFold")
	}
	return uint64(math.Round(p * float64(f.n-1)))
}

// Quantile returns the p-quantile (p in [0, 1]) of the signed errors.
// It panics on an empty fold or an out-of-range p.
func (f *ErrFold) Quantile(p float64) float64 {
	rank := f.level(p)
	if f.buf != nil {
		sort.Float64s(f.buf) // in place: the fold is order-free
		return Sorted(f.buf).Percentile(p * 100)
	}
	// Most negative first: the negative buckets by falling key, the
	// zero bucket, then the positive buckets by rising key.
	for i := len(f.neg.c) - 1; i >= 0; i-- {
		if rank < f.neg.c[i] {
			return -bucketMid(f.neg.lo + i)
		}
		rank -= f.neg.c[i]
	}
	if rank < f.zero {
		return 0
	}
	rank -= f.zero
	for i, c := range f.pos.c {
		if rank < c {
			return bucketMid(f.pos.lo + i)
		}
		rank -= c
	}
	panic("stats: ErrFold counts fewer values than it folded")
}

// AbsQuantile returns the p-quantile (p in [0, 1]) of |error|. It
// panics on an empty fold or an out-of-range p.
func (f *ErrFold) AbsQuantile(p float64) float64 {
	rank := f.level(p)
	if f.buf != nil {
		abs := make([]float64, len(f.buf))
		for i, x := range f.buf {
			abs[i] = math.Abs(x)
		}
		sort.Float64s(abs)
		return Sorted(abs).Percentile(p * 100)
	}
	if rank < f.zero {
		return 0
	}
	rank -= f.zero
	lo, hi := math.MaxInt, math.MinInt
	for _, b := range [...]*counts{&f.neg, &f.pos} {
		if len(b.c) > 0 {
			lo, hi = min(lo, b.lo), max(hi, b.lo+len(b.c)-1)
		}
	}
	for k := lo; k <= hi; k++ {
		c := f.neg.get(k) + f.pos.get(k)
		if rank < c {
			return bucketMid(k)
		}
		rank -= c
	}
	panic("stats: ErrFold counts fewer values than it folded")
}

// ErrSummary is what an ErrFold reports: the signed percentiles P01 …
// P99 and the |error| median, 99th percentile and maximum.
type ErrSummary struct {
	P01, P25, P50, P75, P99 float64
	AbsP50, AbsP99, AbsMax  float64
}

// IQR returns the inter-quartile range of the signed error.
func (s ErrSummary) IQR() float64 { return s.P75 - s.P25 }

// Summary returns the fold's eight figures. It panics on an empty fold.
func (f *ErrFold) Summary() ErrSummary {
	return ErrSummary{
		P01: f.Quantile(0.01), P25: f.Quantile(0.25), P50: f.Quantile(0.5),
		P75: f.Quantile(0.75), P99: f.Quantile(0.99),
		AbsP50: f.AbsQuantile(0.5), AbsP99: f.AbsQuantile(0.99), AbsMax: f.max,
	}
}
