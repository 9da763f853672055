package core

import (
	"math"

	"repro/internal/timebase"
)

const (
	// localRateQuality is γ*, the target quality bound for accepting a
	// local rate candidate. Paper value: 0.05 PPM.
	localRateQuality = 0.05e-6

	// rateSanity bounds the relative change between successive rate
	// estimates: outright for p̂_l, on top of the two estimates' quality
	// bounds for p̂. Paper value: 3e-7, a multiple of the 0.1 PPM
	// hardware bound.
	rateSanity = 3e-7
)

// pairEstimate computes the paired rate estimate of equation (17),
// averaged over the forward and backward directions, together with its
// quality bound (E_i+E_j)/Δ(t). ok is false when the pair is degenerate.
func (s *Sync) pairEstimate(j, i *record) (p float64, quality float64, ok bool) {
	if i.seq == j.seq || i.ta <= j.ta || i.tf <= j.tf {
		return 0, 0, false
	}
	fwd := (i.tb - j.tb) / float64(i.ta-j.ta)
	back := (i.te - j.te) / float64(i.tf-j.tf)
	p = (fwd + back) / 2
	if !(p > 0) || math.IsInf(p, 0) || math.IsNaN(p) {
		return 0, 0, false
	}
	span := float64(i.tf-j.tf) * s.p
	quality = ((i.rtt - s.rHat) + (j.rtt - s.rHat)) / span
	return p, quality, true
}

// updateRate advances the global rate estimate p̂ for the new record.
//
// During warmup (the first T_w packets) a growing near/far scheme is
// used: the best packet from the oldest quarter of history is paired with
// the best from the newest quarter, exploiting the growing Δ(t) while
// managing delay errors; the first estimate is the naive p̂_{2,1}.
//
// After warmup the paired estimator of Section 5.2 runs: j is the first
// packet with point error below E*, i advances to every accepted packet,
// and the estimate error is bounded by 2E*/Δ(t).
func (s *Sync) updateRate(rec *record, res *Result) {
	if s.count <= 1 {
		return // single packet: stay on PHatInit
	}

	if s.count <= s.nWarm {
		s.warmupRate(rec, res)
		return
	}

	eStar := s.cfg.EStar()
	if rec.rtt-s.rHat > eStar {
		return // rejected: estimate simply persists (robustness by design)
	}
	res.Accepted = true

	if !s.havePair {
		// Find j: the first packet of the top window currently within E*.
		if j := s.firstWithin(eStar, rec.seq); j != nil {
			s.pairJ = *j
			s.havePair = true
		}
		if !s.havePair {
			// No prior acceptable packet: this one becomes j and waits.
			s.pairJ = *rec
			s.havePair = true
			return
		}
	}

	pNew, qual, ok := s.pairEstimate(&s.pairJ, rec)
	if !ok {
		return
	}
	// Rate sanity: the hardware cannot jump. Two estimates with quality
	// bounds q_old and q_new may legitimately differ by q_old + q_new
	// plus the stability allowance; anything larger means corrupt input
	// — e.g. faulty server timestamps, which pass the RTT filter
	// unscathed because server stamp errors cancel in host-measured
	// RTTs — and the previous estimate is kept (Section 5.2's principle
	// applied to p̂ as well as p̂_l). Until a pair is measured (i after j)
	// there is no bound: p̂ is still PHatInit, which the bound would treat
	// as exact.
	if allowed := s.pQual + qual + rateSanity; s.pairI.seq > s.pairJ.seq && math.Abs(pNew/s.p-1) > allowed {
		res.RateSanityTriggered = true
		return
	}
	s.pairI = *rec
	s.setRate(pNew, rec.tf)
	s.pQual = qual
	res.RateUpdated = true
}

// warmupRate implements the growing near/far warmup scheme.
func (s *Sync) warmupRate(rec *record, res *Result) {
	n := s.hist.Len() // history before this record
	w := n / 4
	if w < 1 {
		w = 1
	}
	// Far window: the first w packets; near window: the last w packets
	// of history plus the current record. Select the lowest point error
	// (relative to the current r̂) in each. With fewer than w history
	// packets the near window is clamped to the whole history.
	bestFar, bestNear := -1, -1
	bestFarErr, bestNearErr := math.Inf(1), math.Inf(1)
	for idx := 0; idx < w && idx < n; idx++ {
		if e := s.hist.At(idx).rtt - s.rHat; e < bestFarErr {
			bestFarErr = e
			bestFar = idx
		}
	}
	nearStart := n - w
	if nearStart < 0 {
		nearStart = 0
	}
	for idx := nearStart; idx < n; idx++ {
		if e := s.hist.At(idx).rtt - s.rHat; e < bestNearErr {
			bestNearErr = e
			bestNear = idx
		}
	}
	near := rec
	if cur := rec.rtt - s.rHat; cur > bestNearErr && bestNear >= 0 {
		near = s.hist.At(bestNear)
	}
	if bestFar < 0 {
		return
	}
	far := s.hist.At(bestFar)
	if far.seq == near.seq {
		return
	}
	pNew, qual, ok := s.pairEstimate(far, near)
	if !ok {
		return
	}
	s.pairJ, s.pairI = *far, *near
	s.havePair = true
	s.setRate(pNew, rec.tf)
	s.pQual = qual
	res.RateUpdated = true
	res.Accepted = true
}

// pushLocalMinima feeds the just-pushed packet (seq, pointErr) into the
// near/far argmin trackers behind updateLocalRate. The near window is
// the trailing nLocalNear packets, so the new one enters immediately;
// the far window [seq−nLocalWin+1, seq−nLocalWin+nLocalFar] lags the
// newest packet, so the one entering it now is older, located in the
// scan window by sequence number (seqs are contiguous: every processed
// packet gets the next one). Amortized O(1) per packet.
func (s *Sync) pushLocalMinima(seq int, pointErr float64) {
	s.nearMin.Push(seq, pointErr)
	s.nearMin.EvictBefore(seq - s.nLocalNear + 1)

	frontSeq := seq - s.scan.Len() + 1
	winStart := seq - s.nLocalWin + 1
	target := winStart + s.nLocalFar - 1
	for ; s.farNext <= target; s.farNext++ {
		if s.farNext < frontSeq {
			// The packet left the scan window before its push turn
			// (slides that retain less than a full local window; the
			// window holds min(nScan, count−front) ≥ min(nLocalWin, count−front)
			// packets). Skipping it is safe: frontSeq only grows and
			// updateLocalRate activates only once the whole window is
			// retained (winStart ≥ frontSeq), so a skipped packet can
			// never be inside an active far window.
			continue
		}
		s.farMin.Push(s.farNext, s.scan.At(s.farNext-frontSeq).pointErr)
	}
	s.farMin.EvictBefore(winStart)
}

// rebuildLocalMinima reloads both argmin trackers from the scan
// window's point errors, which hold the whole local window whenever the
// history does. Called after point-error revisions (upward level shift,
// server identity re-base), which rewrite values the deques may have
// cached; O(window) on rare events only.
func (s *Sync) rebuildLocalMinima() {
	if !s.cfg.UseLocalRate || s.scan.Len() == 0 {
		return
	}
	s.nearMin.Reset()
	s.farMin.Reset()
	backSeq := s.hist.Back().seq
	frontSeq := backSeq - s.scan.Len() + 1

	lo := max(frontSeq, backSeq-s.nLocalNear+1)
	for seq := lo; seq <= backSeq; seq++ {
		s.nearMin.Push(seq, s.scan.At(seq-frontSeq).pointErr)
	}

	winStart := backSeq - s.nLocalWin + 1
	hi := winStart + s.nLocalFar - 1
	for seq := max(frontSeq, winStart); seq <= hi && seq <= backSeq; seq++ {
		s.farMin.Push(seq, s.scan.At(seq-frontSeq).pointErr)
	}
	if hi+1 > s.farNext {
		s.farNext = hi + 1
	}
}

// updateLocalRate advances the quasi-local rate p̂_l of Section 5.2: a
// window of effective width τ̄ ending at the current packet is divided
// into near (τ̄/W), central, and far (2τ̄/W) sub-windows; the best
// packet of the near and far sub-windows forms a candidate; candidates
// are accepted only under the target quality γ* and a sanity bound on
// the relative change. The two sub-window minima come from the argmin
// trackers maintained by pushLocalMinima (ROADMAP: this was the last
// O(window)-per-packet scan outside the offset filter), selecting the
// oldest record of minimal point error exactly like the scans they
// replace.
func (s *Sync) updateLocalRate(res *Result) {
	if !s.cfg.UseLocalRate {
		return
	}
	// Refinement only: activated once a full window is available after
	// warmup (Section 6.1).
	if s.count <= s.nWarm+s.nLocalWin || s.hist.Len() < s.nLocalWin {
		return
	}

	// Time-scale control guard (Section 6.1, "Lost Packets"): if the gap
	// to the previous packet is too large the local rate is out of date.
	n := s.hist.Len()
	if n >= 2 {
		gap := timebase.CounterSpan(s.hist.At(n-2).tf, s.hist.At(n-1).tf, s.p)
		if gap > s.cfg.LocalRateWindow/2 {
			s.plValid = false
			return
		}
	}

	frontSeq := s.hist.Front().seq
	jSeq, okJ := s.farMin.MinSeq()
	iSeq, okI := s.nearMin.MinSeq()
	if !okJ || !okI {
		return // defensive: cannot happen once the window is full
	}
	j := s.hist.At(jSeq - frontSeq)
	i := s.hist.At(iSeq - frontSeq)

	pCand, qual, ok := s.pairEstimate(j, i)
	if !ok {
		return
	}

	prev := s.pl
	if prev == 0 {
		prev = s.p
	}
	switch {
	case qual > localRateQuality:
		// Conservative: quality insufficient, duplicate the previous
		// value (p̂_l(t_k) = p̂_l(t_{k-1})).
		s.pl = prev
	case math.Abs(pCand/prev-1) > rateSanity:
		// Sanity check: the hardware cannot change rate this fast, no
		// matter what the data says (e.g. faulty server timestamps).
		s.pl = prev
		res.RateSanityTriggered = true
	default:
		s.pl = pCand
	}
	s.plValid = true
}
