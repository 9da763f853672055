package core

import (
	"fmt"
	"math"
)

// refSync is the seed implementation of the engine, kept verbatim as
// the executable specification for TestGoldenEquivalence: plain slice
// history recopied at every slide, O(T_s) minimum scans per packet, and
// math.Exp weights. Algorithmically it IS the paper's engine; the
// production Sync must reproduce its outputs to within 1e-12 while
// doing amortized O(1) work per packet.
//
// Do not "fix" or optimize this type: its value is being the naive,
// obviously-correct rendition of Sections 5 and 6.
type refSync struct {
	cfg Config

	nOff, nLocalWin, nLocalNear, nLocalFar, nShift, nTop, nWarm int

	hist  []refRecord
	count int

	p        float64
	c        float64
	pairJ    refRecord
	pairI    refRecord
	havePair bool
	pQual    float64

	rHat         float64
	lastShiftSeq int

	pl      float64
	plValid bool

	theta    float64
	thetaTf  uint64
	thetaErr float64
	haveTh   bool

	ident      Identity
	identKnown bool
}

// refRecord is the seed's history entry: every per-packet value, kept
// for the whole top window.
type refRecord struct {
	seq      int
	ta, tf   uint64
	tb, te   float64
	rtt      float64
	pointErr float64
	theta    float64
}

func newRefSync(cfg Config) (*refSync, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &refSync{
		cfg:    cfg,
		nOff:   cfg.packets(cfg.OffsetWindow),
		nShift: cfg.packets(cfg.ShiftWindow),
		nTop:   cfg.packets(cfg.TopWindow),
		nWarm:  cfg.WarmupSamples,
		p:      cfg.PHatInit,
		rHat:   math.Inf(1),
	}
	if cfg.UseLocalRate {
		s.nLocalWin = cfg.packets(cfg.LocalRateWindow)
		s.nLocalNear = maxInt(1, s.nLocalWin/cfg.LocalRateW)
		s.nLocalFar = maxInt(1, 2*s.nLocalWin/cfg.LocalRateW)
	}
	if s.nTop < 2*s.nWarm {
		s.nTop = 2 * s.nWarm
	}
	return s, nil
}

func (s *refSync) clockRead(T uint64) float64 { return float64(T)*s.p + s.c }

func (s *refSync) Process(in Input) (Result, error) {
	if in.Tf <= in.Ta {
		return Result{}, fmt.Errorf("core: counter stamps not increasing (Ta=%d, Tf=%d)", in.Ta, in.Tf)
	}
	if len(s.hist) > 0 && in.Tf <= s.hist[len(s.hist)-1].tf {
		return Result{}, fmt.Errorf("core: exchange out of order (Tf=%d after %d)", in.Tf, s.hist[len(s.hist)-1].tf)
	}

	seq := s.count
	s.count++
	res := Result{Seq: seq, Warmup: seq < s.nWarm}

	rec := refRecord{seq: seq, ta: in.Ta, tf: in.Tf, tb: in.Tb, te: in.Te}
	rec.rtt = spanSeconds(in.Ta, in.Tf, s.p)

	if rec.rtt < s.rHat {
		s.rHat = rec.rtt
	}
	rec.pointErr = rec.rtt - s.rHat

	if seq == 0 {
		s.c = in.Tb - float64(in.Ta)*s.p
	}

	s.updateRate(&rec, &res)

	rec.theta = s.naiveTheta(rec)
	res.ThetaNaive = rec.theta

	s.hist = append(s.hist, rec)

	s.detectUpwardShift(&res)
	s.updateLocalRate(&res)
	s.updateOffset(&rec, &res)
	s.slideTopWindow()

	res.PHat = s.p
	res.PQuality = s.pQual
	res.PLocal = s.pl
	res.PLocalValid = s.plValid
	res.ClockP, res.ClockC = s.p, s.c
	res.RTT = rec.rtt
	res.RTTHat = s.rHat
	res.PointError = s.hist[len(s.hist)-1].pointErr
	res.ThetaHat = s.theta
	return res, nil
}

func (s *refSync) naiveTheta(rec refRecord) float64 {
	return (s.clockRead(rec.ta)+s.clockRead(rec.tf))/2 - (rec.tb+rec.te)/2
}

func (s *refSync) setRate(pNew float64, at uint64) {
	if pNew == s.p {
		return
	}
	s.c += float64(at) * (s.p - pNew)
	s.p = pNew
}

func (s *refSync) slideTopWindow() {
	if len(s.hist) < s.nTop {
		return
	}
	drop := s.nTop / 2
	s.hist = append(s.hist[:0:0], s.hist[drop:]...)

	s.recomputeRHat()

	if !s.havePair || s.pairI.seq <= s.pairJ.seq || s.pairJ.seq >= s.hist[0].seq {
		return
	}
	eStar := s.cfg.EStar()
	var newJ *refRecord
	for idx := range s.hist {
		cand := &s.hist[idx]
		if cand.seq >= s.pairI.seq {
			break
		}
		if cand.rtt-s.rHat <= eStar {
			newJ = cand
			break
		}
	}
	if newJ == nil {
		best := math.Inf(1)
		for idx := range s.hist {
			cand := &s.hist[idx]
			if cand.seq >= s.pairI.seq {
				break
			}
			if e := cand.rtt - s.rHat; e < best {
				best = e
				newJ = cand
			}
		}
	}
	if newJ == nil {
		return
	}
	pNew, qual, ok := s.pairEstimate(*newJ, s.pairI)
	s.pairJ = *newJ
	if ok && qual < s.pQual {
		s.setRate(pNew, s.hist[len(s.hist)-1].tf)
		s.pQual = qual
	}
}

func (s *refSync) recomputeRHat() {
	m := math.Inf(1)
	for idx := range s.hist {
		rec := &s.hist[idx]
		if rec.seq < s.lastShiftSeq {
			continue
		}
		if rec.rtt < m {
			m = rec.rtt
		}
	}
	if !math.IsInf(m, 1) {
		s.rHat = m
	}
}

func (s *refSync) detectUpwardShift(res *Result) {
	if len(s.hist) < s.nShift || s.count <= s.nWarm {
		return
	}
	start := len(s.hist) - s.nShift
	rl := math.Inf(1)
	for idx := start; idx < len(s.hist); idx++ {
		if s.hist[idx].rtt < rl {
			rl = s.hist[idx].rtt
		}
	}
	if rl-s.rHat > s.cfg.ShiftThresholdFactor*s.cfg.E() {
		s.rHat = rl
		s.lastShiftSeq = s.hist[start].seq
		for idx := start; idx < len(s.hist); idx++ {
			s.hist[idx].pointErr = s.hist[idx].rtt - s.rHat
		}
		if s.havePair {
			if _, qual, ok := s.pairEstimate(s.pairJ, s.pairI); ok {
				s.pQual = qual
			}
		}
		res.UpwardShiftDetected = true
	}
}

func (s *refSync) pairEstimate(j, i refRecord) (p float64, quality float64, ok bool) {
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

func (s *refSync) updateRate(rec *refRecord, res *Result) {
	if s.count <= 1 {
		return
	}

	if s.count <= s.nWarm {
		s.warmupRate(rec, res)
		return
	}

	eStar := s.cfg.EStar()
	if rec.rtt-s.rHat > eStar {
		return
	}
	res.Accepted = true

	if !s.havePair {
		for idx := range s.hist {
			cand := s.hist[idx]
			if cand.rtt-s.rHat <= eStar && cand.tf < rec.tf {
				s.pairJ = cand
				s.havePair = true
				break
			}
		}
		if !s.havePair {
			s.pairJ = *rec
			s.havePair = true
			return
		}
	}

	pNew, qual, ok := s.pairEstimate(s.pairJ, *rec)
	if !ok {
		return
	}
	if allowed := s.pQual + qual + s.cfg.RateSanity; math.Abs(pNew/s.p-1) > allowed {
		res.RateSanityTriggered = true
		return
	}
	s.pairI = *rec
	s.setRate(pNew, rec.tf)
	s.pQual = qual
	res.RateUpdated = true
}

func (s *refSync) warmupRate(rec *refRecord, res *Result) {
	n := len(s.hist)
	w := n / 4
	if w < 1 {
		w = 1
	}
	bestFar, bestNear := -1, -1
	bestFarErr, bestNearErr := math.Inf(1), math.Inf(1)
	for idx := 0; idx < w && idx < n; idx++ {
		if e := s.hist[idx].rtt - s.rHat; e < bestFarErr {
			bestFarErr = e
			bestFar = idx
		}
	}
	for idx := n - w; idx < n; idx++ {
		if idx < 0 {
			continue
		}
		if e := s.hist[idx].rtt - s.rHat; e < bestNearErr {
			bestNearErr = e
			bestNear = idx
		}
	}
	nearRec := *rec
	if cur := rec.rtt - s.rHat; cur > bestNearErr && bestNear >= 0 {
		nearRec = s.hist[bestNear]
	}
	if bestFar < 0 {
		return
	}
	farRec := s.hist[bestFar]
	if farRec.seq == nearRec.seq {
		return
	}
	pNew, qual, ok := s.pairEstimate(farRec, nearRec)
	if !ok {
		return
	}
	s.pairJ, s.pairI = farRec, nearRec
	s.havePair = true
	s.setRate(pNew, rec.tf)
	s.pQual = qual
	res.RateUpdated = true
	res.Accepted = true
}

func (s *refSync) updateLocalRate(res *Result) {
	if !s.cfg.UseLocalRate {
		return
	}
	if s.count <= s.nWarm+s.nLocalWin || len(s.hist) < s.nLocalWin {
		return
	}

	n := len(s.hist)
	if n >= 2 {
		gap := spanSeconds(s.hist[n-2].tf, s.hist[n-1].tf, s.p)
		if gap > s.cfg.LocalRateWindow/2 {
			s.plValid = false
			return
		}
	}

	win := s.hist[n-s.nLocalWin:]
	far := win[:s.nLocalFar]
	near := win[len(win)-s.nLocalNear:]

	bestOf := func(rs []refRecord) refRecord {
		best := rs[0]
		for _, r := range rs[1:] {
			if r.pointErr < best.pointErr {
				best = r
			}
		}
		return best
	}
	j, i := bestOf(far), bestOf(near)

	pCand, qual, ok := s.pairEstimate(j, i)
	if !ok {
		return
	}

	prev := s.pl
	if prev == 0 {
		prev = s.p
	}
	switch {
	case qual > s.cfg.LocalRateQuality:
		s.pl = prev
	case math.Abs(pCand/prev-1) > s.cfg.RateSanity:
		s.pl = prev
		res.RateSanityTriggered = true
	default:
		s.pl = pCand
	}
	s.plValid = true
}

func (s *refSync) updateOffset(rec *refRecord, res *Result) {
	e := s.cfg.E()
	if s.count <= s.nWarm {
		e *= s.cfg.WarmupEInflation
	}
	eStarStar := s.cfg.EStarStarFactor * e

	n := len(s.hist)
	start := n - s.nOff
	if start < 0 {
		start = 0
	}
	win := s.hist[start:]

	gl := 0.0
	useGl := s.cfg.UseLocalRate && s.plValid && s.pl > 0 && s.p > 0
	if useGl {
		gl = s.pl/s.p - 1
	}

	now := rec.tf
	minET := math.Inf(1)
	sumW, sumWTheta := 0.0, 0.0
	for idx := range win {
		r := &win[idx]
		age := spanSeconds(r.tf, now, s.p)
		et := r.pointErr + s.cfg.AgingRate*age
		if et < minET {
			minET = et
		}
		w := math.Exp(-(et / e) * (et / e))
		pred := r.theta
		if useGl {
			pred -= gl * age
		}
		sumW += w
		sumWTheta += w * pred
	}

	var cand float64
	switch {
	case !s.haveTh:
		cand = rec.theta
	case minET > eStarStar || sumW == 0:
		res.PoorQuality = true
		prevAge := spanSeconds(s.thetaTf, now, s.p)
		prevPred := s.theta
		if useGl {
			prevPred -= gl * prevAge
		}
		gapped := false
		if n >= 2 {
			gapped = spanSeconds(s.hist[n-2].tf, now, s.p) > s.cfg.LocalRateWindow/2
		}
		if gapped {
			wNew := math.Exp(-(rec.pointErr / e) * (rec.pointErr / e))
			agedErr := s.thetaErr + s.cfg.AgingRate*prevAge
			wOld := math.Exp(-(agedErr / e) * (agedErr / e))
			if wNew+wOld > 0 {
				cand = (wNew*rec.theta + wOld*prevPred) / (wNew + wOld)
			} else {
				cand = prevPred
			}
			s.thetaErr = math.Min(rec.pointErr, agedErr)
		} else {
			cand = prevPred
			s.thetaErr += s.cfg.AgingRate * prevAge
		}
	default:
		cand = sumWTheta / sumW
		s.thetaErr = minET
	}

	rateUnc := s.cfg.HardwareRateBound
	if s.havePair && s.pQual > rateUnc {
		rateUnc = s.pQual
	}
	limit := s.cfg.OffsetSanity + rateUnc*spanSeconds(s.thetaTf, now, s.p)
	if s.haveTh && s.count > s.nWarm && math.Abs(cand-s.theta) > limit {
		res.OffsetSanityTriggered = true
		cand = s.theta
	} else {
		s.thetaTf = now
	}

	s.theta = cand
	s.haveTh = true
}

func (s *refSync) ObserveIdentity(id Identity) bool {
	if !id.valid() {
		return false
	}
	if !s.identKnown {
		s.ident = id
		s.identKnown = true
		return false
	}
	if id == s.ident {
		return false
	}
	s.ident = id
	if len(s.hist) == 0 {
		return true
	}
	last := &s.hist[len(s.hist)-1]
	s.rHat = last.rtt
	s.lastShiftSeq = last.seq
	last.pointErr = 0
	if s.havePair {
		if _, qual, ok := s.pairEstimate(s.pairJ, s.pairI); ok {
			s.pQual = qual
		}
	}
	return true
}
