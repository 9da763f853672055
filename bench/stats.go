package main

import (
	"math"
	"sort"
)

// The benchmark does its own arithmetic rather than call internal/stats:
// an instrument that a change to the code under test could recalibrate
// would not be one. The quartile rule, besides, has to be the driver's.

// summary is how every timing is reported: the median, the quartiles
// beside it, the sample count, and the highest percentile the sample
// supports.
type summary struct {
	N      int
	Median float64
	Q1     float64
	Q3     float64
	// Tail is the highest of p90/p99/p99.9/p99.99 that still has at
	// least ten samples beyond it (0 when even p90 does not), and
	// TailP names it.
	TailP float64
	Tail  float64
}

// bestDecile is the decile a run's figure is read at: the 10th
// percentile of its pieces when lower is better, the 90th when higher
// is. On this shared box interference is one-sided — a neighbour's
// burst, a stolen time slice, a cold cache only ever add time — so, as
// the paper does with round-trip times, the figure is taken near the
// floor of what was observed rather than in the middle of it; a decile
// rather than the extreme, so that it takes more than one lucky piece.
const bestDecile = 10

// best sorts xs in place and returns its best decile.
func best(xs []float64, lowerBetter bool) float64 {
	sort.Float64s(xs)
	if lowerBetter {
		return percentileSorted(xs, bestDecile)
	}
	return percentileSorted(xs, 100-bestDecile)
}

// segmentFloors takes the times of the same segments of work measured
// over several passes, passes[pass][segment], and returns the best
// decile of each segment across the passes. Their sum is the floor
// pass: what one pass costs when the box leaves it alone. Whole passes
// cannot say that here: over five minutes of back-to-back half-second
// passes their median moved between 1.19 and 1.86 µs an exchange from
// one 20 s window to the next and their best decile between 1.03 and
// 1.52, the floor pass between 0.95 and 1.07 (1.22 once), because
// every segment gets as many chances to run undisturbed as there are
// passes.
func segmentFloors(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	floors := make([]float64, len(passes[0]))
	across := make([]float64, len(passes))
	for seg := range floors {
		for p := range passes {
			across[p] = passes[p][seg]
		}
		floors[seg] = best(across, true)
	}
	return floors
}

// percentileSorted reads percentile p (0..100) off an ascending
// sample by linear interpolation between closest ranks.
func percentileSorted(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

// quartiles cuts an ascending sample the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads printed here are the ones the driver of BENCHMARK.json
// computes from the same runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailPercentile is the percentile rule of the benchmark: the highest
// candidate with at least ten samples beyond it, so a reported tail is
// never one stall's worth of luck. ok is false when the sample is too
// small for any candidate.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range []float64{99.99, 99.9, 99, 90} {
		if float64(n)*(100-c)/100 >= 10-1e-9 { // the slack absorbs 99.9 and 99.99 not being binary fractions
			return c, true
		}
	}
	return 0, false
}

// summarize sorts xs in place and reports it.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Q1, s.Median, s.Q3 = quartiles(xs)
	if p, ok := tailPercentile(len(xs)); ok {
		s.TailP, s.Tail = p, percentileSorted(xs, p)
	}
	return s
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentileSorted(xs, 50)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread is the distance between the quartiles as a share of the
// median: the run-to-run noise figure bounds are judged against.
func spread(xs []float64) float64 {
	s := summarize(append([]float64(nil), xs...))
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// finite reports whether every value is a real number; no read of any
// clock may ever produce NaN or Inf.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
