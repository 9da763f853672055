package core

import (
	"math"
	"sort"

	"repro/internal/timebase"
)

// weightCutoffBase is the quality-width multiple beyond which a
// record's Gaussian weight is treated as zero in the offset filter:
// E^T > 9·E gives w < exp(−81) ≈ 7e-36, at least twenty orders of
// magnitude under any surviving weight whenever the filter is not in
// its poor-quality fallback (min E^T ≤ E** means the best weight is at
// least exp(−36)), so skipping these records moves θ̂ by far less than
// a femtosecond. The effective cutoff is
// max(weightCutoffBase, eStarStarFactor)·E so that the E** fallback
// decision and the stored min E^T stay bit-identical to the full scan:
// every record skipped for weight purposes still lies strictly above
// the fallback threshold.
const weightCutoffBase = 9

const (
	// eStarStarFactor sets E** = eStarStarFactor·E, the total-error
	// level beyond which the weighted estimate is abandoned for the
	// last-good fallback. Paper value: 6.
	eStarStarFactor = 6

	// OffsetSanity is E_s, the threshold on successive offset estimate
	// increments beyond which the previous value is duplicated. It must
	// be far above any physical increment. Paper value: 1 ms.
	//
	// The effective threshold between an estimate made at counter time
	// T1 and a candidate at T2 is E_s + hardwareRateBound·(T2−T1): over
	// long gaps (Figure 11a recovers from 3.8 days of no data) the clock
	// can legitimately have drifted by far more than E_s, and a fixed
	// threshold would cause exactly the lock-out the paper warns about.
	OffsetSanity = timebase.Millisecond

	// hardwareRateBound is the global clock stability bound used to age
	// the sanity threshold. Paper hardware characterization: 0.1 PPM.
	hardwareRateBound = 0.1e-6

	// warmupEInflation multiplies E during warmup, while point errors
	// are not yet trusted.
	warmupEInflation = 3
)

// The offset scan's exactness envelope: the cutoff max(9, E**/E)·E stays
// under 26·E, so (E^T/E)² < 676 inside the scan's exponential reduction
// range; beyond it the fallback would be gated on weights below
// exp(−26²) ≈ 2.5e-294. These fail to compile unless 1 < E**/E < 26.
const (
	_ uint = 25 - eStarStarFactor
	_ uint = eStarStarFactor - 2
)

// updateOffset runs the four-stage offset algorithm of Section 5.3 at the
// arrival of the current packet, with the warmup and lost-packet
// refinements of Section 6.1:
//
//	(i)   total per-packet error E^T_i = E_i + ε·age_i
//	(ii)  quality weights w_i = exp(−(E^T_i/E)²) over the τ′ window
//	(iii) weighted combination, optionally with local-rate linear
//	      prediction; fallback to the last estimate when quality is
//	      extremely poor (min E^T > E**)
//	(iv)  sanity check: successive estimates may not differ by more than
//	      E_s, otherwise the previous value is duplicated
//
// This is the engine's only per-packet loop. It is bounded by the
// number of records whose aging term alone stays under the weight
// cutoff: point errors are non-negative, so E^T_i ≥ ε·age_i, and ages
// increase monotonically toward the old end of the window — records
// beyond the age horizon (cutoff/ε seconds) are located by binary
// search and never touched. The surviving records go through
// offsetScan, four to an instruction where the CPU has AVX2, as one
// contiguous slice of the scan window.
//
// now, pointErr and theta are the arriving packet's Tf, point error as
// assigned at arrival and naive estimate.
func (s *Sync) updateOffset(now uint64, pointErr, theta float64, res *Result) {
	e := s.cfg.E()
	if s.count <= s.nWarm {
		e *= warmupEInflation
	}
	eStarStar := eStarStarFactor * e
	cutoff := weightCutoffBase * e
	if eStarStar > cutoff {
		cutoff = eStarStar
	}

	// The τ′ window: the newest min(nOff, count−front) packets, all of them
	// in the scan window (nScan ≥ nOff).
	n := s.scan.Len()
	start := max(n-s.nOff, 0)
	// Local-rate residual for linear prediction (equation 21): the
	// estimate of the rate error of C(t) relative to true time. Zero
	// when the refinement is off or not yet valid: θ − 0·age is θ
	// exactly, so there is one scan for both configurations.
	gl := 0.0
	useGl := s.cfg.UseLocalRate && s.plValid && s.pl > 0 && s.p > 0
	if useGl {
		gl = s.pl/s.p - 1
	}

	// Field by field: a composite literal is built in a temporary and
	// copied 16 bytes at a time, each copy a load that straddles two
	// 8-byte stores still in flight — a store-forwarding stall apiece.
	var par scanParams
	par.fnow, par.p, par.eps = float64(now), s.p, s.cfg.AgingRate
	par.invE, par.cutoff, par.gl = 1/e, cutoff, gl

	// Age horizon: skip the contiguous old prefix whose aging term
	// alone exceeds the cutoff (E^T ≥ ε·age there, so none of it can
	// contribute weight, and none of it can hold min E^T when the
	// fallback decision is in play). Ages decrease with position, so
	// the boundary is found by binary search; for the paper's window
	// settings the horizon is far wider than τ′ and this never fires.
	// The aging term is the scan's own expression, rounding for
	// rounding, so the horizon never drops a record the scan would keep.
	if par.aging(s.scan.At(start)) > cutoff {
		lim := n - 1 - start
		//repro:alloc-ok cold branch (the horizon never binds at paper window settings) and sort.Search does not retain f, so the closure stays on the stack; BenchmarkProcess asserts 0 allocs/op
		start += sort.Search(lim, func(i int) bool {
			return par.aging(s.scan.At(start+i)) <= cutoff
		})
	}

	// Stage (i)+(ii): total errors and weights over the window, oldest
	// first.
	minET, sumW, sumWTheta := offsetScan(s.scan.Slice(start, n), &par)

	var cand float64
	switch {
	case !s.haveTh:
		// First packet: the estimate is the naive one; with the clock
		// aligned to the server at the first exchange this is the
		// paper's "first estimate is just the server timestamp".
		cand = theta
	case minET > eStarStar || sumW == 0:
		res.PoorQuality = true
		prevAge := timebase.CounterSpan(s.thetaTf, now, s.p)
		prevPred := s.theta
		if useGl {
			prevPred -= float64(gl * prevAge)
		}
		gapped := false
		if h := s.hist.Len(); h >= 2 {
			gapped = timebase.CounterSpan(s.hist.At(h-2).tf, now, s.p) > s.cfg.LocalRateWindow/2
		}
		if gapped {
			// After a long outage the stored window is stale: blend the
			// new naive estimate (weighted by its point error) with the
			// aged previous estimate, to let fresh data in quickly.
			wNew := math.Exp(-(pointErr / e) * (pointErr / e))
			agedErr := s.thetaErr + float64(s.cfg.AgingRate*prevAge)
			wOld := math.Exp(-(agedErr / e) * (agedErr / e))
			if wNew+wOld > 0 {
				cand = (float64(wNew*theta) + float64(wOld*prevPred)) / (wNew + wOld)
			} else {
				cand = prevPred
			}
			s.thetaErr = math.Min(pointErr, agedErr)
		} else {
			cand = prevPred
			s.thetaErr += float64(s.cfg.AgingRate * prevAge)
		}
	default:
		cand = sumWTheta / sumW
		s.thetaErr = minET
	}

	// Stage (iv): sanity check. The threshold is orders of magnitude
	// above any physical inter-packet offset increment; it exists to
	// bound damage from events like wrong server timestamps, never to
	// tune performance (which would risk lock-out). It ages at the
	// clock's rate uncertainty so that legitimate drift accumulated
	// since the last trusted estimate is never rejected: the hardware
	// stability bound once p̂ is calibrated, or the current pair quality
	// bound while it is still worse than that (early life, where C(t)
	// genuinely drifts at multiple PPM). Aging is also what re-admits
	// fresh data after a period of rejection, preventing permanent
	// lock-out — at a price: a step Δ in the servers' labels is
	// re-admitted only after (Δ − OffsetSanity)/rate bound, ≈ 1e7 s ≈ 116
	// days for a 1 s step at the 0.1 PPM hardware bound (a leap second;
	// ROADMAP 23). During warmup the check is off entirely — the paper's
	// warmup trusts nothing and locks nothing.
	rateUnc := hardwareRateBound
	if s.havePair && s.pQual > rateUnc {
		rateUnc = s.pQual
	}
	limit := OffsetSanity + float64(rateUnc*timebase.CounterSpan(s.thetaTf, now, s.p))
	if s.haveTh && s.count > s.nWarm && math.Abs(cand-s.theta) > limit {
		res.OffsetSanityTriggered = true
		cand = s.theta // duplicate the most recent trusted value
	} else {
		s.thetaTf = now
	}

	s.theta = cand
	s.haveTh = true
}

// scanParams are one scan's loop invariants: the counter value now as
// a float64, the clock period, the aging rate ε, 1/E, the weight
// cutoff and the local-rate residual γ_l (0 when linear prediction is
// off). The AVX2 kernel broadcasts them from this layout.
type scanParams struct {
	fnow, p, eps, invE, cutoff, gl float64
}

// aging is a record's aging term ε·age, in the scan's own operation
// order: age = (Tf_now − Tf_i)·p first, then ε·age.
func (par *scanParams) aging(r *scanRec) float64 {
	return par.eps * ((par.fnow - r.ftf) * par.p)
}

// scanLanes are the scan's accumulators: record i of the window
// accumulates into lane i mod 4. The AVX2 kernel stores each array
// from one register.
type scanLanes struct {
	minET, sumW, sumWTheta [4]float64
}

// emptyLanes are the accumulators before the first record.
func emptyLanes() scanLanes {
	inf := math.Inf(1)
	return scanLanes{minET: [4]float64{inf, inf, inf, inf}}
}

// offsetScan is stages (i)+(ii) over the τ′ window, one contiguous slice:
// total errors E^T = E_i + ε·age, their minimum, and the weighted sums
// with w = exp(−(E^T/E)²) over the records at or under the weight
// cutoff (the others' weights are below exp(−81); see weightCutoffBase).
//
// The scan has one shape and two implementations of it. The shape:
// four accumulation lanes, record i in lane i mod 4, each record put
// through exactly the operations of offsetScanLoop's body in that
// order, the lanes reduced as (l0+l1)+(l2+l3) and by min. The
// implementations: offsetScanLoop, plain Go, on every platform; and
// offsetScanAVX2 (offset_amd64.s), which takes the window's whole
// blocks of four records — one lane each, so four records per
// instruction — where the CPU has AVX2, leaving at most three records
// to the loop. They agree to the last bit on finite inputs
// (TestOffsetScanKernelMatchesLoop, FuzzOffsetScan), so accuracy
// figures do not depend on which one ran.
func offsetScan(win []scanRec, par *scanParams) (minET, sumW, sumWTheta float64) {
	acc := emptyLanes()
	offsetScanLoop(win, scanBlocks(win, par, &acc), par, &acc)
	return min(acc.minET[0], acc.minET[1], acc.minET[2], acc.minET[3]),
		(acc.sumW[0] + acc.sumW[1]) + (acc.sumW[2] + acc.sumW[3]),
		(acc.sumWTheta[0] + acc.sumWTheta[1]) + (acc.sumWTheta[2] + acc.sumWTheta[3])
}

// offsetScanLoop scans win[from:] into the lanes: the whole scan where
// there is no kernel, the kernel's tail where there is.
//
// The Gaussian weight is expNeg's body (expneg.go) inline — the
// function exceeds the compiler's inlining budget and a call per
// record is most of the loop's cost — with the domain guard reduced to
// one clamp: (E^T/E)² is non-negative by construction and below 676
// whenever the cutoff test passes and point errors are non-negative
// (eStarStarFactor is under 26); the clamp makes an
// invariant breach yield weight ≈ 0 instead of a wrapped table index.
// TestScanWeightIsExpNeg holds the copy to expNeg with ==.
//
// Every product that feeds a sum is wrapped in float64(): the
// conversion forbids the compiler to fuse the pair into one
// multiply-add (arm64 does, and amd64 at GOAMD64=v3), and the kernel
// uses no FMA either, so every platform rounds each record the same
// way. The minimum is a compare and a conditional store, which is
// what the kernel's VMINPD computes operand for operand. The lanes
// live in memory: a lane is touched every fourth record, and holding
// them in registers (one pass per lane) measured no faster.
func offsetScanLoop(win []scanRec, from int, par *scanParams, acc *scanLanes) {
	fnow, p, eps, invE, cutoff, gl := par.fnow, par.p, par.eps, par.invE, par.cutoff, par.gl
	for i := from; i < len(win); i++ {
		r := &win[i]
		lane := i & 3
		age := (fnow - r.ftf) * p
		et := r.pointErr + float64(eps*age)
		if et < acc.minET[lane] {
			acc.minET[lane] = et
		}
		if et > cutoff {
			continue
		}
		x := et * invE
		arg := x * x
		if arg >= 676 {
			arg = 676 // defense: weight 0 to scan precision either way
		}
		t := float64(arg*invLn2x256) + expShift
		k := int(math.Float64bits(t) & (1<<32 - 1))
		kf := t - expShift
		rr := (arg - float64(kf*ln2Hi256)) - float64(kf*ln2Lo256)
		r2 := rr * rr
		q := (1 - rr) + float64(r2*(0.5-float64(rr*(1.0/6))))
		w := float64(expNegTab[k&255] * expScaleTab[(k>>8)&1023] * q)
		acc.sumW[lane] += w
		acc.sumWTheta[lane] += float64(w * (r.theta - float64(gl*age)))
	}
}
