package ensemble

// Property tests of the two sort-free kernels — the majority-region
// search and the weighted median — against independent oracles: a
// brute-force O(N²) containment count and a standard-library stable
// sort. Neither oracle shares code or structure with what it checks (no
// copy of an endpoint sweep lives here).

import (
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// oracleRegion is Marzullo's definition, by brute force: a maximal
// overlap always begins at some interval's start, so for each voter's
// start count the voters containing it (closed intervals: touching
// counts); the region begins at the leftmost start with the largest
// count and ends at the nearest end among the intervals containing it.
func oracleRegion(lo, hi []float64, voter []bool, nReady int) (rLo, rHi float64, ok bool) {
	best := 0
	for i := range lo {
		if !voter[i] {
			continue
		}
		cnt, end := 0, math.Inf(1)
		for j := range lo {
			if voter[j] && lo[j] <= lo[i] && lo[i] <= hi[j] {
				cnt++
				end = math.Min(end, hi[j])
			}
		}
		if cnt > best || (cnt == best && lo[i] < rLo) {
			best, rLo, rHi = cnt, lo[i], end
		}
	}
	return rLo, rHi, best > nReady/2
}

// oracleVoters applies the documented voting rule: ready servers, only
// the selected ones in the incumbent pass, and in the fresh pass none
// wider than uninformativeWidthFactor × the median ready width.
func oracleVoters(e *Ensemble, selectedOnly bool) (voter []bool, nReady int) {
	var widths []float64
	for k := range e.members {
		if e.members[k].ready {
			nReady++
			widths = append(widths, e.hi[k]-e.lo[k])
		}
	}
	widthCap := math.Inf(1)
	if !selectedOnly && len(widths) > 0 {
		sort.Float64s(widths)
		widthCap = uninformativeWidthFactor * widths[len(widths)/2]
	}
	voter = make([]bool, len(e.members))
	for k := range e.members {
		m := &e.members[k]
		voter[k] = m.ready && (m.selected || !selectedOnly) && e.hi[k]-e.lo[k] <= widthCap
	}
	return voter, nReady
}

// intervalShapes generate the interval sets; each fills e.lo/e.hi for n
// servers from the seeded source.
var intervalShapes = []struct {
	name string
	fill func(src *rng.Source, lo, hi []float64)
}{
	// Continuous centers and widths: no ties, mixed overlap.
	{"random", func(src *rng.Source, lo, hi []float64) {
		for k := range lo {
			c, w := src.Float64()*10, src.Float64()*3
			lo[k], hi[k] = c-w, c+w
		}
	}},
	// Small integer grid: touching endpoints, duplicate intervals and
	// zero-width intervals are the common case, not the corner.
	{"grid", func(src *rng.Source, lo, hi []float64) {
		for k := range lo {
			lo[k] = float64(src.Intn(6))
			hi[k] = lo[k] + float64(src.Intn(4))
		}
	}},
	// Tight clusters that all mutually intersect — the steady state the
	// closed form serves — plus an occasional far-off minority.
	{"steady", func(src *rng.Source, lo, hi []float64) {
		for k := range lo {
			c, w := 5+src.Float64()*0.1, 1+src.Float64()
			if src.Bool(0.2) {
				c += 100
			}
			lo[k], hi[k] = c-w, c+w
		}
	}},
	// Nested: one center, geometrically growing widths.
	{"nested", func(src *rng.Source, lo, hi []float64) {
		c := src.Float64()
		for k := range lo {
			w := math.Ldexp(1, k%8)
			lo[k], hi[k] = c-w, c+w
		}
	}},
	// Two tight camps bridged by ballooned intervals far past
	// uninformativeWidthFactor × the median width.
	{"ballooned", func(src *rng.Source, lo, hi []float64) {
		for k := range lo {
			c, w := float64(src.Intn(2))*10, 0.5+src.Float64()
			if src.Bool(0.25) {
				c, w = 5, 50*(1+src.Float64())
			}
			lo[k], hi[k] = c-w, c+w
		}
	}},
}

// TestRegionMatchesOracle: for seeded random and adversarial interval
// sets, N = 1…16, with and without the incumbent-only restriction, the
// region and its majority flag equal the brute-force oracle's.
func TestRegionMatchesOracle(t *testing.T) {
	src := rng.New(7)
	closedForm, swept := 0, 0
	for n := 1; n <= 16; n++ {
		cfgs := make([]core.Config, n)
		for i := range cfgs {
			cfgs[i] = core.DefaultConfig(synthP, 16)
		}
		e, err := New(Config{Engines: cfgs})
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range intervalShapes {
			for trial := 0; trial < 60; trial++ {
				shape.fill(src, e.lo, e.hi)
				// Mostly everyone ready and seated; sometimes a random
				// subset, so empty and minority voter sets occur.
				pReady, pSel := 1.0, 1.0
				if trial%3 == 1 {
					pReady, pSel = 0.8, 0.6
				}
				for k := range e.members {
					e.members[k].ready = src.Bool(pReady)
					e.members[k].selected = src.Bool(pSel)
				}
				for _, selectedOnly := range []bool{true, false} {
					voter, nReady := oracleVoters(e, selectedOnly)
					if nReady == 0 {
						continue // updateSelection never asks
					}
					wantLo, wantHi, wantOK := oracleRegion(e.lo, e.hi, voter, nReady)
					lo, hi, ok := e.region(nReady, selectedOnly)
					if ok != wantOK {
						t.Fatalf("%s n=%d selectedOnly=%v: ok %v, oracle %v\nlo %v\nhi %v\nvoters %v",
							shape.name, n, selectedOnly, ok, wantOK, e.lo, e.hi, voter)
					}
					anyVoter := false
					for _, v := range voter {
						anyVoter = anyVoter || v
					}
					if anyVoter && (lo != wantLo || hi != wantHi) {
						t.Fatalf("%s n=%d selectedOnly=%v: region [%v,%v], oracle [%v,%v]\nlo %v\nhi %v\nvoters %v",
							shape.name, n, selectedOnly, lo, hi, wantLo, wantHi, e.lo, e.hi, voter)
					}
					switch {
					case !anyVoter:
					case lo <= hi && allContain(e.lo, e.hi, voter, lo, hi):
						closedForm++
					default:
						swept++
					}
				}
			}
		}
	}
	// The generators must exercise both branches of region.
	if closedForm < 100 || swept < 100 {
		t.Errorf("coverage: %d mutually-intersecting sets, %d fractured — harness lost a branch", closedForm, swept)
	}
}

// allContain reports whether every voter's interval contains [lo,hi] —
// the mutually-intersecting case region answers in closed form.
func allContain(los, his []float64, voter []bool, lo, hi float64) bool {
	for k := range los {
		if voter[k] && !(los[k] <= lo && hi <= his[k]) {
			return false
		}
	}
	return true
}

// TestWeightedMedianMatchesStableSort: through the production read
// path, the weighted median equals the sort.SliceStable reference
// bitwise — with ties in value, zero weights and cumulative weights
// landing exactly on the half-weight boundary — including past twelve
// items, where an unstable sort would be free to reorder the ties.
func TestWeightedMedianMatchesStableSort(t *testing.T) {
	src := rng.New(11)
	boundary := 0
	for n := 1; n <= 24; n++ {
		for trial := 0; trial < 200; trial++ {
			vals, ws := make([]float64, n), make([]float64, n)
			total := 0.0
			for k := range vals {
				switch trial % 4 {
				case 0: // continuous values and weights
					vals[k], ws[k] = src.Float64()*2e3-1e3, src.Float64()+0.05
				case 1:
					// Ties in value under decimal weights: their sums
					// round differently in different orders, so only a
					// stable order reproduces the reference's cumulative
					// weights at the boundary comparison.
					vals[k] = float64(src.Intn(3))
					ws[k] = []float64{0.1, 0.2, 0.3, 0.4, 0.6, 0.7}[src.Intn(6)]
				default:
					// Few distinct values (ties), dyadic weights (exact
					// sums, so the boundary branch really fires), and
					// zero weights.
					vals[k] = float64(src.Intn(5)) + 0.25*float64(src.Intn(2))
					ws[k] = []float64{0, 0.5, 1, 1, 2}[src.Intn(5)]
				}
				total += ws[k]
			}
			got, want := weightedMedian(vals, ws), refMedian(vals, ws)
			if got != want {
				t.Fatalf("n=%d: median %v, stable-sort reference %v\nvals %v\nws %v", n, got, want, vals, ws)
			}
			if onBoundary(vals, ws, total) {
				boundary++
			}
		}
	}
	if boundary < 100 {
		t.Errorf("coverage: the exact half-weight boundary fired %d times — harness lost its teeth", boundary)
	}
}

// onBoundary reports whether some value-ordered prefix of the positive
// weights sums to exactly half the total.
func onBoundary(vals, ws []float64, total float64) bool {
	idx := make([]int, 0, len(vals))
	for k := range vals {
		if ws[k] > 0 {
			idx = append(idx, k)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	acc := 0.0
	for _, k := range idx {
		if acc += ws[k]; acc == total/2 {
			return true
		}
	}
	return false
}
