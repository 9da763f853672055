package tscclock

// Golden check of the lock-free public read path on full sim scenarios.
// The ensemble has one combine and one read path — every public read is
// a pure function of the readout the last exchange published — so there
// is no second implementation to hold it against; instead every answer
// is recomputed here, independently, from the readout's own public
// per-server entries.

import (
	"math"
	"sort"
	"testing"

	"repro/internal/ensemble"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// refWeightedMedian is the test's own weighted median: positive-weight
// entries stably sorted by value with the standard library, then the
// half-weight walk (exact boundary: average of the straddling values).
func refWeightedMedian(vals, ws []float64) float64 {
	type item struct{ v, w float64 }
	var items []item
	total := 0.0
	for k := range vals {
		if ws[k] > 0 {
			items = append(items, item{vals[k], ws[k]})
			total += ws[k]
		}
	}
	if len(items) == 0 {
		return vals[0]
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].v < items[b].v })
	acc := 0.0
	for i := range items {
		acc += items[i].w
		if acc == total/2 {
			return (items[i].v + items[i+1].v) / 2
		}
		if acc > total/2 {
			return items[i].v
		}
	}
	return items[len(items)-1].v
}

// TestEnsembleReadoutEquivalenceSim runs a multi-server sim scenario —
// and the colluding-minority selection scenario — through the public
// Ensemble and, after each exchange, compares every lock-free read
// against the independent recomputation.
func TestEnsembleReadoutEquivalenceSim(t *testing.T) {
	if testing.Short() {
		t.Skip("full sim traces")
	}
	scenarios := map[string]sim.MultiScenario{
		"ensemble3": sim.NewMultiScenario(sim.MachineRoom,
			[]sim.ServerSpec{sim.ServerLoc(), sim.ServerInt(), sim.ServerInt()},
			16, 6*timebase.Hour, 42),
		"colluding": sim.NewColludingScenario(sim.MachineRoom, 1.5*timebase.Millisecond,
			16, 6*timebase.Hour, 43),
	}
	for name, sc := range scenarios {
		t.Run(name, func(t *testing.T) {
			tr, err := sim.Generate(sc)
			if err != nil {
				t.Fatal(err)
			}
			n := len(sc.Servers)
			e, err := NewEnsemble(EnsembleOptions{
				Servers: n,
				Clock:   Options{NominalPeriod: 1.0 / 548655270, PollPeriod: 16},
			})
			if err != nil {
				t.Fatal(err)
			}
			vals, rates, ws := make([]float64, n), make([]float64, n), make([]float64, n)
			trusted, prevRate := false, 0.0
			for i, ex := range tr.Completed() {
				st, err := e.ProcessNTPExchange(ex.Server, ex.Ta, ex.Tf, ex.Tb, ex.Te)
				if err != nil {
					t.Fatal(err)
				}
				r := e.Readout()
				if st.Readout != r {
					t.Fatalf("exchange %d: status carries a readout other than the one published", i)
				}
				for k := range r.Servers {
					rates[k], ws[k] = r.Servers[k].Clock.P, r.Servers[k].Weight
				}
				for _, T := range []uint64{ex.Tf, ex.Tf + 500000} {
					for k := range r.Servers {
						vals[k] = r.Servers[k].Clock.AbsoluteTime(T) - r.Servers[k].AsymCorrection
					}
					if got, want := e.AbsoluteTime(T), refWeightedMedian(vals, ws); got != want {
						t.Fatalf("exchange %d: AbsoluteTime(%d): public %v, reference %v", i, T, got, want)
					}
				}
				// Below DEGRADED a once-trusted clock serves the rate
				// frozen at the last trusted combine, not a live median.
				wantRate := refWeightedMedian(rates, ws)
				if trusted && r.BaseState < ensemble.StateDegraded {
					wantRate = prevRate
				}
				trusted = trusted || r.BaseState >= ensemble.StateDegraded
				prevRate = wantRate
				if got := e.Period(); got != wantRate {
					t.Fatalf("exchange %d: Period: public %v, reference %v", i, got, wantRate)
				}
				if got, want := e.Between(ex.Ta, ex.Tf), float64(ex.Tf-ex.Ta)*wantRate; got != want {
					t.Fatalf("exchange %d: Between: public %v, reference %v", i, got, want)
				}
				if got := e.Exchanges(); got != i+1 {
					t.Fatalf("exchange %d: Exchanges: public %d", i, got)
				}
				if i%50 == 0 { // the heavier diagnostic reads, sampled
					sum, agree := 0.0, 0
					for k := range r.Servers {
						sum += ws[k]
						if r.Servers[k].Exchanges > 0 && math.Abs(vals[k]-e.AbsoluteTime(ex.Tf+500000)) <= r.AgreementBound(k) {
							agree++
						}
					}
					if math.Abs(sum-1) > 1e-12 {
						t.Fatalf("exchange %d: weights sum to %v", i, sum)
					}
					if got := r.Agreement(ex.Tf + 500000); got != agree {
						t.Fatalf("exchange %d: Agreement: readout %d, reference %d", i, got, agree)
					}
				}
			}
		})
	}
}
