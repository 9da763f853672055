package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	tscclock "repro"
	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/sim"
	"repro/internal/timebase"
)

// The sync-replay workload: a seed-generated multi-server trace
// replayed through the public ensemble clock as fast as one thread
// goes — the paper's own workflow of keeping raw stamps and
// post-processing them — scored against the simulator's ground truth.

const (
	tracePoll   = 16.0                       // s, per server
	traceLie    = 1.5 * timebase.Millisecond // the colluding pair's shared offset
	traceLoss   = 0.02
	convergeErr = 100 * timebase.Microsecond // |combined error| bound of converge_s …
	convergeFor = timebase.Hour              // … and how long it has to hold

	// timingBatch is how many exchanges one clock reading covers when
	// the replay times itself: small enough that a stall of the box
	// spoils one sample, large enough that reading the clock costs
	// under 0.1 % of what it measures.
	timingBatch = 512
)

// syncScenario is the input of sync-replay and clock-reads: five
// servers of which the last two collude on +1.5 ms from clean
// near-host paths, 2 % loss, one six-hour total outage, and one of
// the colluders stepping a further 3 ms for half a day — every fault
// the ensemble claims to ride out, in one trace.
func syncScenario(seed uint64, days float64) sim.MultiScenario {
	dur := days * timebase.Day
	sc := sim.NewColludingScenario(sim.MachineRoom, traceLie, tracePoll, dur, seed)
	sc.LossProb = traceLoss
	// Six hours and twelve at fourteen days; the smoke test's one-day
	// trace keeps the proportions.
	sc.AddTotalOutage(dur*5/14, dur*5/14+dur/56)
	sc.AddServerStep(len(sc.Servers)-1, dur*9/14, dur*9/14+dur/28, 3*timebase.Millisecond)
	return sc
}

// syncTrace is a generated trace, delivered exchanges only.
type syncTrace struct {
	sc         sim.MultiScenario
	ex         []sim.MultiExchange
	emitted    int     // exchanges the stream emitted, lost ones included
	genSeconds float64 // how long generating took
}

func generateTrace(seed uint64, days float64) (*syncTrace, error) {
	sc := syncScenario(seed, days)
	t0 := time.Now()
	st, err := sim.NewMultiStream(sc)
	if err != nil {
		return nil, err
	}
	tr := &syncTrace{sc: sc, ex: make([]sim.MultiExchange, 0, st.Len())}
	for {
		ex, ok := st.Next()
		if !ok {
			break
		}
		tr.emitted++
		if !ex.Lost {
			tr.ex = append(tr.ex, ex)
		}
	}
	tr.genSeconds = time.Since(t0).Seconds()
	return tr, nil
}

// setupTrace generates the trace `times` times and returns the last
// with every generation time.
func setupTrace(seed uint64, days float64, times int) (*syncTrace, []float64, error) {
	var tr *syncTrace
	var gens []float64
	for i := 0; i < times; i++ {
		// The previous copy goes first: peak memory is then one trace's,
		// which is the workload's, and not the repetition's.
		tr = nil
		runtime.GC()
		var err error
		if tr, err = generateTrace(seed, days); err != nil {
			return nil, nil, err
		}
		gens = append(gens, tr.genSeconds)
	}
	return tr, gens, nil
}

func (tr *syncTrace) clockOptions() tscclock.Options {
	return tscclock.Options{NominalPeriod: 1 / tr.sc.Oscillator.NominalHz, PollPeriod: tracePoll}
}

// coreConfig is the engine configuration tscclock.NewEnsemble derives
// from clockOptions, for the replays that go below the public API.
func (tr *syncTrace) coreConfig() core.Config {
	return core.DefaultConfig(1/tr.sc.Oscillator.NominalHz, tracePoll)
}

func (tr *syncTrace) newEnsemble() (*tscclock.Ensemble, error) {
	return tscclock.NewEnsemble(tscclock.EnsembleOptions{Servers: len(tr.sc.Servers), Clock: tr.clockOptions()})
}

func (tr *syncTrace) newInner() (*ensemble.Ensemble, error) {
	cfgs := make([]core.Config, len(tr.sc.Servers))
	for i := range cfgs {
		cfgs[i] = tr.coreConfig()
	}
	return ensemble.New(ensemble.Config{Engines: cfgs})
}

// replayer feeds exchanges to one fresh clock across one layer
// boundary.
type replayer struct {
	name string // span name: the layer boundary the calls cross
	feed func(e *sim.MultiExchange) error
}

// pass replays the whole trace once and returns its wall time.
// batchNs, when non-nil, receives the wall time of each timingBatch
// exchanges; spans, when non-nil, receives one span per traceEvery-th
// call, timed from origin.
func (tr *syncTrace) pass(rp replayer, batchNs *[]float64, spans *[]span, origin time.Time) (time.Duration, error) {
	start := time.Now()
	mark := start
	for i := range tr.ex {
		e := &tr.ex[i]
		if spans != nil && i%traceEvery == 0 {
			t0 := time.Now()
			if err := rp.feed(e); err != nil {
				return 0, fmt.Errorf("%s: exchange %d: %w", rp.name, i, err)
			}
			t1 := time.Now()
			*spans = append(*spans, span{Req: int64(i), Name: rp.name,
				Start: int64(t0.Sub(origin)), End: int64(t1.Sub(origin))})
		} else if err := rp.feed(e); err != nil {
			return 0, fmt.Errorf("%s: exchange %d: %w", rp.name, i, err)
		}
		if batchNs != nil && (i+1)%timingBatch == 0 {
			now := time.Now()
			*batchNs = append(*batchNs, float64(now.Sub(mark)))
			mark = now
		}
	}
	return time.Since(start), nil
}

// The three boundaries a sync exchange crosses, outermost first. What
// happens inside one cannot be seen from outside it, so the same
// exchanges are replayed at each and self time is the difference.

func (tr *syncTrace) publicReplayer() (replayer, *tscclock.Ensemble, error) {
	ens, err := tr.newEnsemble()
	if err != nil {
		return replayer{}, nil, err
	}
	return replayer{"tscclock.process", func(e *sim.MultiExchange) error {
		_, err := ens.ProcessNTPExchange(e.Server, e.Ta, e.Tf, e.Tb, e.Te)
		return err
	}}, ens, nil
}

func (tr *syncTrace) innerReplayer() (replayer, *ensemble.Ensemble, error) {
	ens, err := tr.newInner()
	if err != nil {
		return replayer{}, nil, err
	}
	return replayer{"ensemble.process", func(e *sim.MultiExchange) error {
		_, err := ens.Process(e.Server, core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te})
		return err
	}}, ens, nil
}

func (tr *syncTrace) coreReplayer() (replayer, error) {
	engines := make([]*core.Sync, len(tr.sc.Servers))
	for i := range engines {
		var err error
		if engines[i], err = core.NewSync(tr.coreConfig()); err != nil {
			return replayer{}, err
		}
	}
	return replayer{"core.process", func(e *sim.MultiExchange) error {
		_, err := engines[e.Server].Process(core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te})
		return err
	}}, nil
}

// batchPass replays the trace through ensemble.ProcessBatch in rounds
// of one exchange per server, the shape a batched receive loop would
// hand over.
func (tr *syncTrace) batchPass() (time.Duration, error) {
	ens, err := tr.newInner()
	if err != nil {
		return 0, err
	}
	round := make([]ensemble.BatchExchange, 0, len(tr.sc.Servers))
	start := time.Now()
	for i := range tr.ex {
		e := &tr.ex[i]
		round = append(round, ensemble.BatchExchange{Server: e.Server, In: core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te}})
		if len(round) == cap(round) || i == len(tr.ex)-1 {
			if err := ens.ProcessBatch(round); err != nil {
				return 0, fmt.Errorf("ensemble.ProcessBatch at exchange %d: %w", i, err)
			}
			round = round[:0]
		}
	}
	return time.Since(start), nil
}

// accuracy is the trace scored against ground truth.
type accuracy struct {
	convergeS            float64 // simulated seconds; NaN if never
	median, iqr, p99abs  float64 // µs, over exchanges after convergence
	after                int     // exchanges after convergence
	falsetickers         int     // convicted at the end of the trace
	colludersOut, finite bool
	allocBytes           float64 // TotalAlloc per exchange over the pass
}

// convergeAt returns the first instant t[i] from which |err| stays
// within bound for the following `hold` seconds, and its index.
func convergeAt(t, errs []float64, bound, hold float64) (float64, int) {
	// nextBad[i] is the first index >= i whose error is out of bound.
	nextBad := make([]int, len(errs)+1)
	nextBad[len(errs)] = len(errs)
	for i := len(errs) - 1; i >= 0; i-- {
		nextBad[i] = nextBad[i+1]
		if math.Abs(errs[i]) > bound {
			nextBad[i] = i
		}
	}
	for i := range errs {
		if nextBad[i] == i {
			continue
		}
		if j := nextBad[i]; j == len(errs) || t[j] > t[i]+hold {
			if t[len(t)-1] < t[i]+hold {
				break // less than `hold` of trace left to judge by
			}
			return t[i], i
		}
	}
	return math.NaN(), len(errs)
}

// accuracyPass replays the trace once, untimed, reading the combined
// clock at every exchange's arrival stamp and comparing it with the
// reference monitor's stamp of the same arrival.
func (tr *syncTrace) accuracyPass() (accuracy, error) {
	rp, ens, err := tr.publicReplayer()
	if err != nil {
		return accuracy{}, err
	}
	t := make([]float64, len(tr.ex))
	errs := make([]float64, len(tr.ex))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	a := accuracy{finite: true}
	for i := range tr.ex {
		e := &tr.ex[i]
		if err := rp.feed(e); err != nil {
			return a, err
		}
		t[i] = e.TrueTf
		errs[i] = ens.AbsoluteTime(e.Tf) - e.Tg
		a.finite = a.finite && finite(errs[i])
	}
	runtime.ReadMemStats(&m1)
	a.allocBytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(tr.ex))

	var from int
	a.convergeS, from = convergeAt(t, errs, convergeErr, convergeFor)
	post := append([]float64(nil), errs[from:]...)
	a.after = len(post)
	s := summarize(post)
	a.median, a.iqr = s.Median*1e6, (s.Q3-s.Q1)*1e6
	for i := range post {
		post[i] = math.Abs(post[i])
	}
	sort.Float64s(post)
	a.p99abs = percentileSorted(post, 99) * 1e6

	ro := ens.Readout()
	a.falsetickers = ro.Falsetickers
	a.colludersOut = true
	for k := sim.ColludingHonest; k < len(ro.Servers); k++ {
		a.colludersOut = a.colludersOut && !ro.Servers[k].Selected
	}
	return a, nil
}

func runSyncReplay(p params) (*runResult, error) {
	res := newResult("sync-replay", p)
	tr, gens, err := setupTrace(p.seed, traceDays(p), p.setups)
	if err != nil {
		return nil, err
	}
	n := float64(len(tr.ex))
	window := time.Duration(p.seconds * float64(time.Second))
	if p.traced {
		window /= 3
	}

	// One untimed pass first: the heap grows to its working size and the
	// trace is paged in before anything is timed.
	if rp, _, err := tr.publicReplayer(); err != nil {
		return nil, err
	} else if _, err := tr.pass(rp, nil, nil, time.Time{}); err != nil {
		return nil, err
	}

	// Timed passes through the public API, each on a fresh ensemble,
	// every segment of timingBatch exchanges timed on its own. The rate
	// and the time of one exchange are read off the floor pass: the pass
	// put together from the best decile, across the passes, of every
	// segment (see segmentFloors). CPU is the whole process's, garbage
	// collector threads included, so it can only be read pass by pass.
	passCap := int(window.Seconds()*4) + 4
	nseg := len(tr.ex) / timingBatch
	segNs := make([][]float64, 0, passCap) // [pass][segment] wall ns
	passNs := make([]float64, 0, passCap)  // wall ns per exchange
	cpus := make([]float64, 0, passCap)    // process CPU µs per exchange
	for start := time.Now(); len(passNs) == 0 || time.Since(start) < window; {
		rp, _, err := tr.publicReplayer()
		if err != nil {
			return nil, err
		}
		seg := make([]float64, 0, nseg)
		cpu0 := readCPU().process
		d, err := tr.pass(rp, &seg, nil, start)
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, float64(readCPU().process-cpu0)/1e3/n)
		passNs = append(passNs, float64(d)/n)
		segNs = append(segNs, seg)
		res.Attempted += len(tr.ex)
	}

	if p.traced {
		spans, err := syncLayers(res, tr, window, median(passNs))
		if err != nil {
			return nil, err
		}
		if err := maybeWriteSpans(p, spans); err != nil {
			return nil, err
		}
		res.layer("sim.next_ns", median(gens)*1e9/float64(tr.emitted))
		commonMicro(res, microBudget(p))
		res.finish()
		return res, nil
	}

	acc, err := tr.accuracyPass()
	if err != nil {
		return nil, err
	}
	res.check("no NaN or Inf from any clock read", acc.finite, "%v", acc.finite)
	res.check("combined clock converged", !math.IsNaN(acc.convergeS), "converge_s %v", acc.convergeS)
	res.check("colluding pair convicted at the end of the trace (Falsetickers == 2)",
		acc.falsetickers == 2 && acc.colludersOut, "falsetickers %d, both deselected %v", acc.falsetickers, acc.colludersOut)
	res.check("offset_err_p99abs_us under the lie size", acc.p99abs < traceLie*1e6, "%.3f < %.0f", acc.p99abs, traceLie*1e6)

	res.ownMedian("setup_s", gens)
	floors := segmentFloors(segNs)
	floorNs := 0.0
	for _, f := range floors {
		floorNs += f
	}
	// Beside the two floor figures go the whole passes they were cut from.
	rates, passUs := make([]float64, len(passNs)), make([]float64, len(passNs))
	for i, ns := range passNs {
		rates[i], passUs[i] = 1e9/ns, ns/1e3
	}
	res.ownWith("exchanges_per_s", float64(nseg*timingBatch)/floorNs*1e9, rates)
	res.ownWith("exchange_p50_us", median(floors)/timingBatch/1e3, passUs)
	res.ownBest("cpu_us_per_exchange", cpus)
	res.own("offset_err_median_us", acc.median)
	res.own("offset_err_iqr_us", acc.iqr)
	res.own("offset_err_p99abs_us", acc.p99abs)
	res.own("converge_s", acc.convergeS)
	res.own("alloc_bytes_per_exchange", acc.allocBytes)
	res.own("peak_rss_mb", peakRSSMB())
	res.finish()
	return res, nil
}

// traceDays is the simulated length of the trace: fourteen days, or
// one for the smoke test.
func traceDays(p params) float64 {
	if p.quick {
		return 1
	}
	return 14
}

// syncLayers is the traced third of sync-replay: the same exchanges at
// the three boundaries, with spans, and the decision counters. plainNs
// is the median untraced pass, in ns per exchange.
func syncLayers(res *runResult, tr *syncTrace, window time.Duration, plainNs float64) ([]span, error) {
	n := float64(len(tr.ex))
	perRound := 3 * (len(tr.ex)/traceEvery + 1)
	spans := make([]span, 0, perRound)
	scratch := make([]span, 0, perRound)
	var pub, inner, eng, batch []float64
	origin := time.Now()
	for round := 0; round == 0 || time.Since(origin) < window; round++ {
		// Every round pays for its spans, so the rounds are comparable;
		// the first round's are kept, one per sampled exchange and
		// boundary being all that self time needs.
		sp := &spans
		if round > 0 {
			scratch = scratch[:0]
			sp = &scratch
		}
		rp, _, err := tr.publicReplayer()
		if err != nil {
			return nil, err
		}
		d, err := tr.pass(rp, nil, sp, origin)
		if err != nil {
			return nil, err
		}
		pub = append(pub, float64(d)/n)

		rp, _, err = tr.innerReplayer()
		if err != nil {
			return nil, err
		}
		if d, err = tr.pass(rp, nil, sp, origin); err != nil {
			return nil, err
		}
		inner = append(inner, float64(d)/n)

		if rp, err = tr.coreReplayer(); err != nil {
			return nil, err
		}
		if d, err = tr.pass(rp, nil, sp, origin); err != nil {
			return nil, err
		}
		eng = append(eng, float64(d)/n)

		if d, err = tr.batchPass(); err != nil {
			return nil, err
		}
		batch = append(batch, float64(d)/n)
		res.Attempted += 4 * len(tr.ex)
	}
	pubNs, innerNs, engNs := median(pub), median(inner), median(eng)
	res.layer("tscclock.wrap_self_ns", pubNs-innerNs)
	res.layer("ensemble.process_ns", innerNs)
	res.layer("ensemble.self_ns", innerNs-engNs)
	res.layer("core.process_ns", engNs)
	res.layer("ensemble.process_batch_ns", median(batch))
	res.layer("trace_overhead_frac", (pubNs-plainNs)/plainNs)

	linkReplaySpans(spans)
	res.Spans = len(spans)
	res.check("spans recorded", len(spans) > 0, "%d", len(spans))
	self := selfTimes(spans)
	res.check("span self times agree in sign with the pass differences",
		self["tscclock.process"] > 0 && self["ensemble.process"] > 0 && self["core.process"] > 0,
		"tscclock %d ns, ensemble %d ns, core %d ns", self["tscclock.process"], self["ensemble.process"], self["core.process"])

	return spans, tr.decisionPass(res)
}

// linkReplaySpans nests the spans of the three replays: for each
// sampled exchange, the ensemble call becomes the child of the public
// call and the engine call the child of the ensemble call. The three
// were measured in different passes, so each child is moved to start
// where its parent starts; only durations carry meaning.
func linkReplaySpans(spans []span) {
	byReq := map[int64]map[string]int{}
	for i := range spans {
		spans[i].ID = int32(i + 1)
		if byReq[spans[i].Req] == nil {
			byReq[spans[i].Req] = map[string]int{}
		}
		if _, dup := byReq[spans[i].Req][spans[i].Name]; !dup {
			byReq[spans[i].Req][spans[i].Name] = i
		}
	}
	nest := func(parent, child string) {
		for _, m := range byReq {
			pi, ok1 := m[parent]
			ci, ok2 := m[child]
			if !ok1 || !ok2 {
				continue
			}
			d := spans[ci].End - spans[ci].Start
			spans[ci].Parent = spans[pi].ID
			spans[ci].Start = spans[pi].Start
			spans[ci].End = spans[pi].Start + d
		}
	}
	nest("tscclock.process", "ensemble.process")
	nest("ensemble.process", "core.process")
}

// decisionPass replays the trace once more, untimed, below the public
// API, counting what the estimator decided: the ratios that explain
// any move of the accuracy metrics, exact at a fixed seed.
func (tr *syncTrace) decisionPass(res *runResult) error {
	ens, err := tr.newInner()
	if err != nil {
		return err
	}
	var accepted, poor, sanity, shifts, synced, selected float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range tr.ex {
		e := &tr.ex[i]
		r, err := ens.Process(e.Server, core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te})
		if err != nil {
			return fmt.Errorf("decision pass: exchange %d: %w", i, err)
		}
		ro := ens.Readout()
		accepted += b2f(r.Accepted)
		poor += b2f(r.PoorQuality)
		sanity += b2f(r.OffsetSanityTriggered)
		shifts += b2f(r.UpwardShiftDetected)
		synced += b2f(ro.BaseState == ensemble.StateSynced)
		selected += float64(ro.SelectedCount)
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(tr.ex))
	res.layer("ensemble.allocs_per_exchange", float64(m1.Mallocs-m0.Mallocs)/n)
	res.layer("core.accept_frac", accepted/n)
	res.layer("core.poor_quality_frac", poor/n)
	res.layer("core.offset_sanity_frac", sanity/n)
	res.layer("core.shift_events", shifts)
	res.layer("ensemble.synced_frac", synced/n)
	res.layer("ensemble.selected_avg", selected/n)
	res.layer("ensemble.falsetickers_final", float64(ens.Readout().Falsetickers))

	rp, err := tr.coreReplayer()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m0)
	if _, err := tr.pass(rp, nil, nil, time.Time{}); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	res.layer("core.alloc_bytes_per_exchange", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
