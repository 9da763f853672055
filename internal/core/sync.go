package core

import (
	"fmt"
	"math"

	"repro/internal/timebase"
	"repro/internal/window"
)

// Input is the raw data of one completed NTP exchange: everything the
// algorithms are allowed to see.
type Input struct {
	Ta, Tf uint64  // host counter stamps (send, receive)
	Tb, Te float64 // server stamps in seconds (receive, transmit)
}

// Result reports the synchronization state after processing one packet.
type Result struct {
	// Seq is the 0-based index of the processed packet.
	Seq int

	// PHat is the current global rate estimate (seconds per cycle) and
	// PQuality its estimated error bound (dimensionless).
	PHat     float64
	PQuality float64

	// PLocal is the current quasi-local rate estimate and PLocalValid
	// whether it is fresh enough to use (always false when the local
	// rate refinement is disabled).
	PLocal      float64
	PLocalValid bool

	// ThetaHat is the current estimate of the offset of the uncorrected
	// clock C(t), evaluated at this packet's arrival.
	ThetaHat float64
	// ThetaNaive is this packet's naive per-packet offset estimate
	// (equation 19), the raw material of the filter.
	ThetaNaive float64

	// ClockP and ClockC define the uncorrected clock in force after this
	// packet: C(T) = ClockP·T + ClockC.
	ClockP, ClockC float64

	// RTT is this packet's measured round-trip time, RTTHat the current
	// minimum estimate r̂, and PointError E_i = RTT − r̂ (after any
	// level-shift revision).
	RTT, RTTHat, PointError float64

	// Accepted reports whether the packet was accepted into the global
	// rate pair; RateUpdated whether p̂ changed.
	Accepted    bool
	RateUpdated bool

	// Quality flags.
	OffsetSanityTriggered bool // the E_s check duplicated the previous θ̂
	RateSanityTriggered   bool // the local-rate sanity duplicated p̂_l
	PoorQuality           bool // the E** fallback was used
	UpwardShiftDetected   bool // an upward level shift was detected now
	Warmup                bool // packet processed during warmup
}

// record is what pairEstimate reads of a packet. The engine keeps one
// while the packet is among the newest nKeep (hist) and while it is a
// strict RTT prefix minimum of its half of the top window (lows,
// nextLows): the only records the pair searches can return.
type record struct {
	seq    int
	ta, tf uint64
	tb, te float64
	rtt    float64 // seconds, measured with p̂ at arrival
}

// scanRec is what the engine keeps of a packet only while it is among
// the newest nScan: the offset filter reads these three fields over τ′,
// shift revision rewrites pointErr over T_s, the local-rate trackers
// read pointErr over τ̄, and nothing reads them further back. Packed in
// 24 bytes, the weighted scan of updateOffset streams through them
// without striding across history records. The ftf field is float64(tf),
// so a record's age is one float subtraction, fnow − ftf, which rounds
// once more than float64(now−tf) would: ~1e-19 s on E^T.
type scanRec struct {
	ftf float64
	// pointErr is E_i relative to the r̂ in force at arrival, revised
	// backwards when an upward level shift is detected (Section 6.2).
	// It is never negative: r̂ is at or below the record's own RTT when
	// the value is assigned, both at arrival and at revisions.
	pointErr float64
	theta    float64 // naive offset estimate θ̂_i (equation 19)
}

// Sync is the synchronization engine. Feed it completed exchanges in
// arrival order with Process; lost packets are simply never fed
// (Section 6.1: "any lost packets are simply excluded from the
// analysis"). Sync is not safe for concurrent use.
//
// Every per-packet operation is amortized O(1) in the window sizes, and
// memory is bounded by the short windows, not the top one: the top
// window is a sequence range [front, count), of which the engine keeps
// the newest nKeep records and the RTT prefix minima (see firstWithin),
// and the two windowed minima the filters need — r̂ over the top window
// and r̂_l over the shift window T_s — come from monotonic-deque
// trackers instead of per-packet scans. The only remaining per-packet
// loop is the offset filter's weighted combination, which is O(active
// offset window) by definition of the estimator (each in-window record
// contributes an age-dependent weight that changes every packet) — the
// work is inherent, its width is not: offsetScan takes four records per
// instruction where the CPU has AVX2.
type Sync struct {
	cfg Config

	// Window sizes in packets. nScan is the furthest back anything reads
	// a scanRec: max(nOff, nShift, nLocalWin). nKeep is the furthest back
	// anything reads a record by position: max(nScan, nWarm).
	nOff, nLocalWin, nLocalNear, nLocalFar, nShift, nTop, nWarm, nScan, nKeep int

	// The top window is the packets [front, count). hist holds its newest
	// min(nKeep, count−front) records and scan their newest min(nScan,
	// count−front) scanRecs, each in a backing array of at most twice
	// that, grown lazily: nothing is reserved up front. Every length
	// guard on hist compares it with nKeep or less, so it has the outcome
	// it would have on the whole window.
	hist  window.Tail[record]
	scan  window.Tail[scanRec]
	count int // total packets processed
	front int // first seq of the top window

	// lows holds the strict RTT prefix minima of [front, front+nTop/2),
	// the half the next slide drops, and nextLows those of
	// [front+nTop/2, count), oldest first: a record enters when its RTT
	// is below its list's last. A slide makes nextLows the new lows.
	lows, nextLows []record

	// Global rate state: the pair (j, i) and the clock C(T) = p·T + c.
	p        float64
	c        float64
	pairJ    record
	pairI    record
	havePair bool
	pQual    float64

	// Minimum RTT tracking. rHat caches the front of rMin, the deque
	// tracking the minimum over the top window at or after the last
	// upward shift point; r̂_l over the trailing T_s window comes from
	// the same deque via SuffixMin (the shift window always nests
	// inside the r̂ window, sharing its leading edge).
	rHat         float64
	rMin         window.MinTracker
	lastShiftSeq int // first seq at/after the most recent upward shift

	// Local rate state. The near and far sub-window argmin trackers
	// replace the per-packet O(τ̄/W) scans of updateLocalRate: both
	// windows slide forward by exactly one record per packet, so each is
	// a monotonic-deque sliding-window minimum keyed by record seq, with
	// the oldest-tie policy matching the scans' first-of-equal selection.
	// The far window lags the newest record by nLocalWin−nLocalFar
	// packets, so records enter it delayed, tracked by farNext.
	// Point-error REVISIONS (upward shift, identity re-base) rebuild
	// both trackers, since they rewrite values cached in the deques.
	pl      float64
	plValid bool
	nearMin window.MinTracker
	farMin  window.MinTracker
	farNext int

	// Offset state: the last estimate, where it was made, and its
	// estimated error (for the gap fallback of Section 6.1).
	theta    float64
	thetaTf  uint64
	thetaErr float64
	haveTh   bool

	// Server identity tracking (ObserveIdentity).
	ident      Identity
	identKnown bool

	// pub is the atomically published read snapshot (see readout.go):
	// the lock-free read side. Only the writer stores; readers load.
	pub pubState
}

// localRateW is W, the local rate's near/far sub-window divisor: near
// width τ̄/W, far width 2τ̄/W. Paper value: 30.
const localRateW = 30

// NewSync constructs an engine from a validated config.
func NewSync(cfg Config) (*Sync, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sync{
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
		s.nLocalNear = maxInt(1, s.nLocalWin/localRateW)
		s.nLocalFar = maxInt(1, 2*s.nLocalWin/localRateW)
		s.nearMin.KeepOldestTies = true
		s.farMin.KeepOldestTies = true
	}
	if s.nTop < 2*s.nWarm {
		s.nTop = 2 * s.nWarm
	}
	s.nScan = max(s.nOff, s.nShift, s.nLocalWin)
	s.nKeep = max(s.nScan, s.nWarm)
	s.hist = window.MakeTail[record](2 * s.nKeep)
	s.scan = window.MakeTail[scanRec](2 * s.nScan)
	s.publish()
	return s, nil
}

// clockRead evaluates the uncorrected clock at counter value T.
func (s *Sync) clockRead(T uint64) float64 { return float64(float64(T)*s.p) + s.c }

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return x-x == 0 }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Process ingests one completed exchange and returns the updated state.
// Exchanges must be fed in arrival order. An exchange the engine
// refuses — counter stamps not increasing or out of order, a server
// stamp that is NaN or infinite — returns an error and changes nothing:
// the engine carries on as if it had been lost.
//
//repro:hotpath
func (s *Sync) Process(in Input) (Result, error) {
	if in.Tf <= in.Ta {
		//repro:alloc-ok rejected-input error path: allocates only for exchanges the engine refuses to process
		return Result{}, fmt.Errorf("core: counter stamps not increasing (Ta=%d, Tf=%d)", in.Ta, in.Tf)
	}
	if s.hist.Len() > 0 && in.Tf <= s.hist.Back().tf {
		//repro:alloc-ok rejected-input error path: allocates only for exchanges the engine refuses to process
		return Result{}, fmt.Errorf("core: exchange out of order (Tf=%d after %d)", in.Tf, s.hist.Back().tf)
	}

	if !finite(in.Tb) || !finite(in.Te) {
		// No data beats bad data: a NaN or infinite server stamp would
		// pass every later comparison (|NaN − θ̂| > limit is false) and
		// be published as the offset for a whole τ′ window — for good,
		// through the clock origin, if it came first.
		//repro:alloc-ok rejected-input error path: allocates only for exchanges the engine refuses to process
		return Result{}, fmt.Errorf("core: server stamps not finite (Tb=%g, Te=%g)", in.Tb, in.Te)
	}

	seq := s.count
	s.count++
	res := Result{Seq: seq, Warmup: seq < s.nWarm}

	rec := record{seq: seq, ta: in.Ta, tf: in.Tf, tb: in.Tb, te: in.Te}
	pointErr := s.filterRTT(&rec)

	if seq == 0 {
		// Align the clock origin with the server: C(Ta,1) = Tb,1. The
		// first offset estimate is then the naive one, which equation
		// (19) makes ≈ −r/2 + noise relative to this alignment.
		s.c = in.Tb - float64(float64(in.Ta)*s.p)
	}

	// Global rate synchronization (warmup scheme, then the paired
	// estimator of Section 5.2).
	s.updateRate(&rec, &res)

	// The naive offset estimate uses the clock in force after the rate
	// update so that filtering and estimation stay decoupled.
	theta := s.pushRecord(&rec, pointErr)
	res.ThetaNaive = theta

	// Upward level-shift detection (Section 6.2) may revise recent point
	// errors, so run it before the offset filter consumes them.
	s.detectUpwardShift(&res)

	// Local rate refinement.
	s.updateLocalRate(&res)

	// Offset estimation (Section 5.3 with the Section 6.1 additions). The
	// arrival's own point error enters as assigned at arrival: a shift
	// revision above rewrites only the stored copy.
	s.updateOffset(rec.tf, pointErr, theta, &res)

	// Top-level window maintenance.
	s.slideTopWindow()

	res.PHat = s.p
	res.PQuality = s.pQual
	res.PLocal = s.pl
	res.PLocalValid = s.plValid
	res.ClockP, res.ClockC = s.p, s.c
	res.RTT = rec.rtt
	res.RTTHat = s.rHat
	res.PointError = s.scan.Back().pointErr
	res.ThetaHat = s.theta
	s.publish()
	return res, nil
}

// filterRTT is the RTT filter's per-packet step: the record's RTT under
// the p̂ in force, the minimum tracking, and the returned point error
// against the resulting r̂. Downward movements of the minimum are
// unambiguous (congestion cannot lower it) and take effect immediately;
// the tracker sees every sample, and its window trails by eviction only.
func (s *Sync) filterRTT(rec *record) (pointErr float64) {
	rec.rtt = timebase.CounterSpan(rec.ta, rec.tf, s.p)
	if rec.rtt < s.rHat {
		s.rHat = rec.rtt
	}
	s.rMin.Push(rec.seq, rec.rtt)
	return rec.rtt - s.rHat
}

// pushRecord appends the record to the history and, if it is a new
// prefix minimum of its half of the top window, to that half's list;
// its scanRec — with the naive offset estimate, which it returns — to
// the scan window and, when the local rate is in use, its point error
// to the near/far argmin trackers.
func (s *Sync) pushRecord(rec *record, pointErr float64) (theta float64) {
	theta = s.naiveTheta(*rec)
	if s.hist.Len() == s.nKeep {
		s.hist.DropFront(1)
	}
	*s.hist.Push() = *rec
	lows := &s.lows
	if rec.seq >= s.front+s.nTop/2 {
		lows = &s.nextLows
	}
	if n := len(*lows); n == 0 || rec.rtt < (*lows)[n-1].rtt {
		//repro:alloc-ok grows only when a half of the top window holds more prefix minima than any before it: the two backing arrays swap at slides and are never dropped, and a half of a real trace holds a dozen or so
		*lows = append(*lows, *rec)
	}
	if s.scan.Len() == s.nScan {
		s.scan.DropFront(1)
	}
	sc := s.scan.Push()
	sc.ftf = float64(rec.tf)
	sc.pointErr = pointErr
	sc.theta = theta
	if s.cfg.UseLocalRate {
		s.pushLocalMinima(rec.seq, pointErr)
	}
	return theta
}

// naiveTheta computes equation (19) for a record with the current clock:
// θ̂_i = (C(Ta)+C(Tf))/2 − (Tb+Te)/2.
func (s *Sync) naiveTheta(rec record) float64 {
	return float64((s.clockRead(rec.ta)+s.clockRead(rec.tf))/2) - float64((rec.tb+rec.te)/2)
}

// setRate installs a new global rate estimate, preserving offset
// continuity: the clock is redefined so that it agrees with the old one
// at the current counter value ("Clock Offset Consistency", Section 6.1).
func (s *Sync) setRate(pNew float64, at uint64) {
	if pNew == s.p {
		return
	}
	s.c += float64(float64(at) * (s.p - pNew))
	s.p = pNew
}

// slideTopWindow advances the top window by half once it is full, then
// re-derives r̂ and revalidates the rate pair (Section 6.1,
// "Windowing"). The slide moves front and swaps the prefix-minimum
// lists; r̂ over the retained window is a deque eviction instead of a
// full re-scan.
func (s *Sync) slideTopWindow() {
	if s.count-s.front < s.nTop {
		return
	}
	s.front += s.nTop / 2
	s.lows, s.nextLows = s.nextLows, s.lows[:0]
	// With nTop odd the newest record already lies past the next slide's
	// front: it moves from lows to start nextLows, of which it is the
	// first record and so a prefix minimum.
	if back := s.hist.Back(); back.seq >= s.front+s.nTop/2 {
		if n := len(s.lows) - 1; s.lows[n].seq == back.seq {
			s.lows = s.lows[:n]
		}
		//repro:alloc-ok nextLows was just emptied, keeping its backing array, which a first slide may still have to allocate
		s.nextLows = append(s.nextLows, *back)
	}
	// No record or scanRec outlives the window.
	if excess := s.hist.Len() - (s.count - s.front); excess > 0 {
		s.hist.DropFront(excess)
	}
	if excess := s.scan.Len() - (s.count - s.front); excess > 0 {
		s.scan.DropFront(excess)
	}

	// r̂ first: the minimum over the retained window, using only values
	// beyond the last upward shift or server re-base point — a suffix
	// query from lastShiftSeq (the eviction to the new window start
	// only bounds deque memory; it is always at or before every future
	// suffix start, so no later query loses samples).
	s.rMin.EvictBefore(s.front)
	if m, ok := s.rMin.SuffixMin(s.lastShiftSeq); ok {
		s.rHat = m
	}

	// Then p̂: if the pair's older packet fell out of the window, replace
	// it with the first retained packet of similar or better point
	// quality, and adopt the new pair only if its quality improves.
	if !s.havePair || s.pairI.seq <= s.pairJ.seq || s.pairJ.seq >= s.front {
		return
	}
	newJ := s.firstWithin(s.cfg.EStar(), s.pairI.seq)
	if newJ == nil {
		// No packet meets E*; fall back to the best available so the
		// pair always has in-window provenance.
		newJ = s.firstBest(s.pairI.seq)
	}
	if newJ == nil {
		return
	}
	pNew, qual, ok := s.pairEstimate(newJ, &s.pairI)
	s.pairJ = *newJ
	if ok && qual < s.pQual {
		s.setRate(pNew, s.hist.Back().tf)
		s.pQual = qual
	}
}

// prefixMinima returns the strict RTT prefix minima of the whole top
// window, oldest first, in two parts: lows, then the records of
// nextLows below lows' last. lows is never empty once a packet is in:
// it holds the window's first record.
func (s *Sync) prefixMinima() [2][]record {
	next, last := s.nextLows, s.lows[len(s.lows)-1].rtt
	for len(next) > 0 && next[0].rtt >= last {
		next = next[1:]
	}
	return [2][]record{s.lows, next}
}

// firstWithin returns the oldest record of the top window older than
// seq before whose point error against r̂ is at most e, or nil. It is
// what a scan of the whole window would return: that record is a
// strict RTT prefix minimum, because every older record's point error
// exceeds its own and subtracting one r̂ is monotone in floating point.
func (s *Sync) firstWithin(e float64, before int) *record {
	for _, part := range s.prefixMinima() {
		for k := range part {
			c := &part[k]
			if c.seq >= before {
				return nil
			}
			if c.rtt-s.rHat <= e {
				return c
			}
		}
	}
	return nil
}

// firstBest returns the oldest record of least point error among those
// of the top window older than seq before, or nil; a strict RTT prefix
// minimum too, by the same monotonicity.
func (s *Sync) firstBest(before int) *record {
	var best *record
	bestErr := math.Inf(1)
	for _, part := range s.prefixMinima() {
		for k := range part {
			c := &part[k]
			if c.seq >= before {
				return best
			}
			if e := c.rtt - s.rHat; e < bestErr {
				bestErr, best = e, c
			}
		}
	}
	return best
}

// detectUpwardShift derives the local minimum r̂_l over the shift
// window T_s from the r̂ deque (a suffix query: the shift window nests
// inside the deque's window whenever the length guard below holds) and
// reacts to upward level shifts: r̂ jumps to r̂_l and the point errors
// of packets back to the shift point are reassessed. The O(T_s) work
// happens only when a shift is actually detected — a rare event — so
// the per-packet cost is the suffix query on the deque.
func (s *Sync) detectUpwardShift(res *Result) {
	if s.hist.Len() < s.nShift || s.count <= s.nWarm {
		return
	}
	back := s.hist.Back()
	thresh := s.cfg.ShiftThresholdFactor * s.cfg.E()
	// r̂_l is bounded above by the newest RTT (it is in the window), so
	// a shift is only detectable when that RTT itself clears the
	// threshold — which skips the suffix query for almost every packet.
	if back.rtt-s.rHat <= thresh {
		return
	}
	rl, ok := s.rMin.SuffixMin(back.seq - s.nShift + 1)
	if !ok {
		return
	}
	if rl-s.rHat > thresh {
		// The last nShift packets: the guard above puts all of them in
		// the scan window as well as the history.
		hs := s.hist.Slice(s.hist.Len()-s.nShift, s.hist.Len())
		sc := s.scan.Slice(s.scan.Len()-s.nShift, s.scan.Len())
		s.rHat = rl
		s.lastShiftSeq = hs[0].seq
		s.rMin.EvictBefore(s.lastShiftSeq)
		for i := range sc {
			sc[i].pointErr = hs[i].rtt - s.rHat
		}
		// The revision rewrote point errors the local-rate argmin
		// trackers may have cached; reload them from live history.
		s.rebuildLocalMinima()
		// The pair survives, but its quality is reassessed against the
		// new error level (Section 6.2, "Asymmetry of offset and rate").
		if s.havePair {
			if _, qual, ok := s.pairEstimate(&s.pairJ, &s.pairI); ok {
				s.pQual = qual
			}
		}
		res.UpwardShiftDetected = true
	}
}
