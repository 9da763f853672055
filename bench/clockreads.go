package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	tscclock "repro"
	"repro/internal/sim"
)

// The clock-reads workload: one writer thread feeds exchanges to a
// clock at a fixed pace while one reader thread times reads of the
// same clock. Phase A is the ensemble clock at 20 000 exchanges/s,
// phase B the single-server clock on server 0's stream at 5 000/s:
// rates far above any real polling, chosen so that a read is very
// likely to meet a publication in flight.

const (
	readBatch = 4096 // reads per clock reading on the reader side
	// Fresh clocks measured per run, and per third of a traced run: see
	// measureReads.
	readRounds       = 10
	tracedReadRounds = 4
	ensembleRate     = 20000.0
	clockRate        = 5000.0
)

// readPhase is what one phase measured.
type readPhase struct {
	readNs   []float64  // ns per read, one sample per batch
	writeNs  []float64  // ns per write
	readAt   []sideMark // reader-side piece boundaries
	writeAt  []sideMark // writer-side piece boundaries
	finite   bool
	writeErr error
	spans    []span
}

// sideMark is one side's state at a piece boundary: samples taken and
// thread CPU burned so far.
type sideMark struct {
	at  int64 // ns from the phase's start
	n   int   // samples so far (read batches, or writes)
	cpu int64 // the side's thread CPU so far, ns
}

// markSide adds a mark when the phase has entered a new tick.
func markSide(marks []sideMark, now int64, n int) []sideMark {
	if len(marks) == cap(marks) {
		return marks
	}
	if k := len(marks); k == 0 || now/int64(tick) > marks[k-1].at/int64(tick) {
		marks = append(marks, sideMark{at: now, n: n, cpu: readCPU().thread})
	}
	return marks
}

// The figures of a phase, one value per piece; each sample of readNs
// stands for readBatch reads.

func sideP50s(samples []float64, marks []sideMark) []float64 {
	var out []float64
	for i := 1; i < len(marks); i++ {
		if a, b := marks[i-1].n, marks[i].n; b > a {
			out = append(out, median(append([]float64(nil), samples[a:b]...)))
		}
	}
	return out
}

func (ph *readPhase) readRates() (perS, cpuNs []float64) {
	for i := 1; i < len(ph.readAt); i++ {
		a, b := ph.readAt[i-1], ph.readAt[i]
		if reads := float64(b.n-a.n) * readBatch; reads > 0 {
			perS = append(perS, reads/(float64(b.at-a.at)/1e9))
			cpuNs = append(cpuNs, float64(b.cpu-a.cpu)/reads)
		}
	}
	return perS, cpuNs
}

// runPhase runs write (one exchange per call, cycling through n
// inputs) at rate/s on one locked thread and read (readBatch reads at
// counter values from T on, returning their sum) on another, for dur.
func runPhase(dur time.Duration, rate float64, n int, write func(i int) error, read func(T uint64) float64, T0 uint64, traced bool, origin time.Time) *readPhase {
	pieces := int(dur/tick) + 3
	ph := &readPhase{
		readNs:  make([]float64, 0, int(dur.Seconds()*40000)+64),
		writeNs: make([]float64, 0, int(dur.Seconds()*rate)+64),
		readAt:  make([]sideMark, 0, pieces),
		writeAt: make([]sideMark, 0, pieces),
		finite:  true,
	}
	if traced {
		ph.spans = make([]span, 0, (cap(ph.readNs)+cap(ph.writeNs))/traceEvery+2)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	go func() { // the writer: the sync loop's side, on the reserved CPU
		defer wg.Done()
		runtime.LockOSThread() // never unlocked: the thread ends here, and its affinity with it
		if loadIsolated {
			pinLoadThread()
		}
		gap := time.Duration(float64(time.Second) / rate)
		for i := 0; ; i++ {
			due := time.Duration(i) * gap
			if due >= dur {
				break
			}
			for time.Since(start) < due {
			}
			t0 := time.Now()
			err := write(i % n)
			t1 := time.Now()
			if err != nil {
				ph.writeErr = err
				break
			}
			ph.writeAt = markSide(ph.writeAt, int64(t0.Sub(start)), len(ph.writeNs))
			if len(ph.writeNs) < cap(ph.writeNs) {
				ph.writeNs = append(ph.writeNs, float64(t1.Sub(t0)))
			}
			if traced && i%traceEvery == 0 && len(ph.spans) < cap(ph.spans)/2 {
				ph.spans = append(ph.spans, span{Req: int64(i), Name: "tscclock.process",
					Start: int64(t0.Sub(origin)), End: int64(t1.Sub(origin))})
			}
		}
		stop.Store(true)
	}()
	var readSpans []span
	if traced {
		readSpans = make([]span, 0, cap(ph.readNs)/traceEvery+1)
	}
	go func() { // the reader: the application's side
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		T := T0
		for b := 0; !stop.Load(); b++ {
			t0 := time.Now()
			sum := read(T)
			t1 := time.Now()
			T += readBatch
			ph.finite = ph.finite && finite(sum)
			ph.readAt = markSide(ph.readAt, int64(t0.Sub(start)), len(ph.readNs))
			if len(ph.readNs) < cap(ph.readNs) {
				ph.readNs = append(ph.readNs, float64(t1.Sub(t0))/readBatch)
			}
			if traced && b%traceEvery == 0 && len(readSpans) < cap(readSpans) {
				readSpans = append(readSpans, span{Req: int64(b), Name: "clock.read_batch",
					Start: int64(t0.Sub(origin)), End: int64(t1.Sub(origin))})
			}
		}
	}()
	wg.Wait()
	ph.spans = append(ph.spans, readSpans...)
	return ph
}

// readPhases runs phase A on the whole trace, then phase B on own, one
// server's exchanges of it, over window seconds in all.
func readPhases(tr *syncTrace, own []sim.MultiExchange, window float64, traced bool, origin time.Time) (a, b *readPhase, err error) {
	half := time.Duration(window / 2 * float64(time.Second))

	// The clock under test sits behind an atomic pointer because, past
	// the end of the trace, the writer starts over on a fresh one
	// (counters must keep increasing per server); the reader loads it
	// once per batch.
	var ens atomic.Pointer[tscclock.Ensemble]
	e0, err := tr.newEnsemble()
	if err != nil {
		return nil, nil, err
	}
	ens.Store(e0)
	a = runPhase(half, ensembleRate, len(tr.ex), func(i int) error {
		c := ens.Load()
		if i == 0 && c.Exchanges() > 0 {
			if c, err = tr.newEnsemble(); err != nil {
				return err
			}
			ens.Store(c)
		}
		e := &tr.ex[i]
		_, err := c.ProcessNTPExchange(e.Server, e.Ta, e.Tf, e.Tb, e.Te)
		return err
	}, func(T uint64) float64 {
		c, sum := ens.Load(), 0.0
		for i := uint64(0); i < readBatch; i++ {
			sum += c.AbsoluteTime(T + i)
		}
		return sum
	}, tr.ex[0].Tf, traced, origin)
	if a.writeErr != nil {
		return nil, nil, fmt.Errorf("phase A write: %w", a.writeErr)
	}

	var clk atomic.Pointer[tscclock.Clock]
	c0, err := tscclock.New(tr.clockOptions())
	if err != nil {
		return nil, nil, err
	}
	clk.Store(c0)
	b = runPhase(half, clockRate, len(own), func(i int) error {
		c := clk.Load()
		if i == 0 && c.Exchanges() > 0 {
			if c, err = tscclock.New(tr.clockOptions()); err != nil {
				return err
			}
			clk.Store(c)
		}
		e := &own[i]
		_, err := c.ProcessNTPExchange(e.Ta, e.Tf, e.Tb, e.Te)
		return err
	}, func(T uint64) float64 {
		c, sum := clk.Load(), 0.0
		for i := uint64(0); i < readBatch; i++ {
			sum += c.AbsoluteTime(T + i)
		}
		return sum
	}, own[0].Tf, traced, origin)
	if b.writeErr != nil {
		return nil, nil, fmt.Errorf("phase B write: %w", b.writeErr)
	}
	return a, b, nil
}

// readFigures names the figures of one round, in the order
// measureReads returns them.
var readFigures = []string{"ensemble_read_ns", "clock_read_ns", "write_ns_p50", "reads_per_s", "read_cpu_ns"}

// measureReads runs `rounds` rounds over window seconds in all, each
// round phase A then phase B on a fresh ensemble and a fresh clock,
// and returns figs[figure][round] in the order of readFigures, with
// the spans of a traced set.
//
// A figure of a run is the mean of its rounds'. What a read costs
// depends on where the allocator happened to put the clock: the same
// published state read at forty addresses cost 20 to 33 ns a read, and
// beside the writer an instance settles near either 21 or 26 ns for as
// long as it lives, about as often the one as the other. One instance
// a run makes every run a coin-toss, and so does the median of a few;
// the mean over placements is what a user can expect, and ten tosses
// put it within a few per cent of itself.
func measureReads(res *runResult, tr *syncTrace, window float64, rounds int, traced bool, origin time.Time) (figs [][]float64, spans []span, err error) {
	figs = make([][]float64, len(readFigures))
	var own []sim.MultiExchange // server 0's stream, for phase B
	for i := range tr.ex {
		if tr.ex[i].Server == 0 {
			own = append(own, tr.ex[i])
		}
	}
	allFinite, progress := true, true
	for round := 0; round < rounds; round++ {
		a, b, err := readPhases(tr, own, window/float64(rounds), traced, origin)
		if err != nil {
			return nil, nil, err
		}
		allFinite = allFinite && a.finite && b.finite
		progress = progress && len(a.readNs) > 0 && len(b.readNs) > 0 && len(a.writeNs) > 0 && len(b.writeNs) > 0
		res.Attempted += len(a.writeNs) + len(b.writeNs)
		perS, cpuNs := a.readRates()
		for i, v := range []float64{
			best(sideP50s(a.readNs, a.readAt), true),
			best(sideP50s(b.readNs, b.readAt), true),
			best(sideP50s(a.writeNs, a.writeAt), true),
			best(perS, false),
			best(cpuNs, true),
		} {
			figs[i] = append(figs[i], v)
		}
		spans = append(append(spans, a.spans...), b.spans...)
	}
	res.check("no NaN or Inf from any clock read", allFinite, "%v", allFinite)
	res.check("reader and writer made progress in every phase", progress, "%v over %d rounds", progress, rounds)
	return figs, spans, nil
}

func runClockReads(p params) (*runResult, error) {
	res := newResult("clock-reads", p)
	defer reserveLoadCPU()()
	tr, gens, err := setupTrace(p.seed, traceDays(p), p.setups)
	if err != nil {
		return nil, err
	}
	origin := time.Now()

	if p.traced {
		plain, _, err := measureReads(res, tr, p.seconds/3, tracedReadRounds, false, origin)
		if err != nil {
			return nil, err
		}
		traced, spans, err := measureReads(res, tr, p.seconds/3, tracedReadRounds, true, origin)
		if err != nil {
			return nil, err
		}
		res.layer("trace_overhead_frac", (mean(traced[0])-mean(plain[0]))/mean(plain[0]))
		for i := range spans {
			spans[i].ID = int32(i + 1)
		}
		res.Spans = len(spans)
		res.check("spans recorded", len(spans) > 0, "%d", len(spans))
		if err := maybeWriteSpans(p, spans); err != nil {
			return nil, err
		}
		res.layer("sim.next_ns", median(gens)*1e9/float64(tr.emitted))
		commonMicro(res, microBudget(p))
		res.finish()
		return res, nil
	}

	figs, _, err := measureReads(res, tr, p.seconds, readRounds, false, origin)
	if err != nil {
		return nil, err
	}
	res.ownMedian("setup_s", gens)
	for i, name := range readFigures {
		res.ownWith(name, mean(figs[i]), figs[i])
	}
	res.own("peak_rss_mb", peakRSSMB())
	res.finish()
	return res, nil
}
