package tscclock

// Reader/writer stress tests for the lock-free read path, designed for
// the race detector (CI's race job runs them with -race): many
// goroutines read Clock and Ensemble while packets are processed,
// asserting that reads are monotone-consistent with the published
// readouts and never observe a torn combine.

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ensemble"
)

// TestClockConcurrentReads: readers race the synchronization feed on a
// Clock. Every read must come from some published readout — counts
// monotone, clock parameters self-consistent — and a held readout must
// be frozen.
func TestClockConcurrentReads(t *testing.T) {
	c, err := New(Options{NominalPeriod: 2e-9, PollPeriod: 16})
	if err != nil {
		t.Fatal(err)
	}
	ins := core.SynthTrace(4000)
	var stop atomic.Bool
	var wg sync.WaitGroup

	const readers = 8
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastCount := 0
			for i := 0; !stop.Load(); i++ {
				r := c.Readout()
				// Monotone: published counts never run backwards.
				if r.Count < lastCount {
					t.Errorf("readout count went backwards: %d after %d", r.Count, lastCount)
					return
				}
				lastCount = r.Count
				// Torn-snapshot detection: reads through the public
				// methods and through the held readout must agree when
				// the readout has not been superseded — but we can only
				// assert on the held snapshot itself, which must be
				// internally consistent: AbsoluteTime decomposes into
				// the published affine clock minus the predicted offset.
				T := r.LastTf + uint64(i%1000)
				abs := r.AbsoluteTime(T)
				want := float64(T)*r.P + r.K - r.ThetaAt(T)
				if abs != want {
					t.Errorf("torn readout: AbsoluteTime %v != decomposition %v", abs, want)
					return
				}
				if r.HaveTheta && math.Abs(r.Theta) > 1 {
					t.Errorf("implausible published θ̂ %v", r.Theta)
					return
				}
				// Exercise every public read concurrently with writes.
				_ = c.AbsoluteTime(T)
				_ = c.Between(T, T+5000)
				_ = c.Period()
				_ = c.Exchanges()
			}
		}()
	}

	for _, in := range ins {
		if _, err := c.ProcessNTPExchange(in.Ta, in.Tf, in.Tb, in.Te); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if got := c.Exchanges(); got != len(ins) {
		t.Errorf("Exchanges = %d, want %d", got, len(ins))
	}
}

// checkCombinedReadout asserts one combined readout is not torn: the
// counts agree with the flags, the weights are normalized, and the
// combined values lie within the envelope of the per-server values
// they claim to combine.
func checkCombinedReadout(t *testing.T, r *ensemble.Readout, servers int) bool {
	t.Helper()
	if len(r.Servers) != servers {
		t.Errorf("readout has %d servers, want %d", len(r.Servers), servers)
		return false
	}
	sel, nFalse, total, sum := 0, 0, 0, 0.0
	for k := range r.Servers {
		sr := &r.Servers[k]
		if sr.Selected {
			sel++
		}
		if sr.Falseticker {
			nFalse++
		}
		total += sr.Exchanges
		sum += sr.Weight
	}
	if sel != r.SelectedCount || nFalse != r.Falsetickers {
		t.Errorf("torn combine: flags count (%d,%d) vs published (%d,%d)",
			sel, nFalse, r.SelectedCount, r.Falsetickers)
		return false
	}
	if total != r.Exchanges {
		t.Errorf("torn combine: per-server exchanges sum %d vs published %d", total, r.Exchanges)
		return false
	}
	if sum != 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("torn combine: weights sum to %v", sum)
		return false
	}
	// The combined rate and absolute time are weighted medians: they
	// must lie within the min..max envelope of the positive-weight
	// servers' own values from this same snapshot.
	lo, hi := math.Inf(1), math.Inf(-1)
	any := false
	T := r.LastTf + 5000
	aLo, aHi := math.Inf(1), math.Inf(-1)
	for k := range r.Servers {
		sr := &r.Servers[k]
		if sr.Weight <= 0 {
			continue
		}
		any = true
		lo = math.Min(lo, sr.Clock.P)
		hi = math.Max(hi, sr.Clock.P)
		a := sr.Clock.AbsoluteTime(T)
		aLo = math.Min(aLo, a)
		aHi = math.Max(aHi, a)
	}
	if any {
		if r.Rate < lo || r.Rate > hi {
			t.Errorf("torn combine: rate %v outside its servers' envelope [%v,%v]", r.Rate, lo, hi)
			return false
		}
		if abs := r.AbsoluteTime(T); abs < aLo || abs > aHi {
			t.Errorf("torn combine: absolute time %v outside [%v,%v]", abs, aLo, aHi)
			return false
		}
	}
	return true
}

// TestEnsembleConcurrentReads: readers race the exchange feed on an
// Ensemble while one server is faulty — weights, selection and
// falseticker state churn mid-run — and no read may observe a torn
// combine.
func TestEnsembleConcurrentReads(t *testing.T) {
	const servers = 3
	e, err := NewEnsemble(EnsembleOptions{
		Servers: servers,
		Clock:   Options{NominalPeriod: 2e-9, PollPeriod: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup

	const readers = 8
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastEx := 0
			for !stop.Load() {
				r := e.Readout()
				if r.Exchanges < lastEx {
					t.Errorf("combined exchange count went backwards: %d after %d", r.Exchanges, lastEx)
					return
				}
				lastEx = r.Exchanges
				if !checkCombinedReadout(t, r, servers) {
					return
				}
				// Exercise every public read concurrently with writes.
				T := r.LastTf + 1000
				_ = e.AbsoluteTime(T)
				_ = e.Between(T, T+5000)
				_ = e.Period()
				_ = e.Exchanges()
			}
		}()
	}

	// Feed staggered exchanges; server 2 turns faulty halfway so the
	// selection state (the torn-combine hazard) churns under load.
	const p = 2e-9
	const rtt = 400e-6
	rounds := 300
	for i := 0; i < rounds; i++ {
		for k := 0; k < servers; k++ {
			now := float64(i)*16 + float64(k)*16/float64(servers) + 1
			off := 0.0
			if k == 2 && i >= rounds/2 {
				off = 5e-3
			}
			if _, err := e.ProcessNTPExchange(k,
				uint64(now/p), uint64((now+rtt)/p),
				now+rtt/2+off, now+rtt/2+20e-6+off); err != nil {
				t.Error(err)
				i = rounds
				break
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	r := e.Readout()
	if r.Exchanges != servers*rounds {
		t.Errorf("Exchanges = %d, want %d", r.Exchanges, servers*rounds)
	}
	if r.Falsetickers != 1 {
		t.Errorf("Falsetickers = %d, want 1 (server 2 faulty)", r.Falsetickers)
	}
}
