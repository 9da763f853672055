package main

import (
	"fmt"
	"sort"
	"time"

	tscclock "repro"
	"repro/internal/ntp"
)

// The two serving workloads: the same relay under an open loop
// (relay-open) and under a closed loop (relay-sat).

// openSteps are the offered rates of relay-open, each held for half
// the window. Below both the shard idles between packets; the second
// is high enough that latency has started to rise (queueing behind
// wake-ups) while throughput is nowhere near its limit.
var openSteps = []struct {
	name string
	rate float64
}{{"r10k", 10000}, {"r40k", 40000}}

const (
	satWindow = 32 // requests in flight per socket on relay-sat

	// noisyLateUs is the noise guard: a run whose generator sent its
	// 99th-percentile request this late measured the box, not the relay.
	noisyLateUs = 1000.0
)

// setupRelay boots the relay `times` times, keeping the last, and
// returns the boot-until-ready times in seconds.
func setupRelay(times int) (*relay, []float64, error) {
	var readies []float64
	for i := 0; ; i++ {
		r, err := bootRelay()
		if err != nil {
			return nil, nil, err
		}
		readies = append(readies, r.ready.Seconds())
		if i == times-1 {
			return r, readies, nil
		}
		r.stop()
	}
}

// served is one timed window plus what the relay counted over it.
type served struct {
	w        *timedWindow
	dur      time.Duration // the scheduled length of the window
	st0, st1 ntp.Stats
	denied   uint64 // limiter denials over the window
}

func (s *served) replies() float64 { return float64(s.st1.Replied - s.st0.Replied) }

// The three figures a served window yields, each one value per piece.
// Pieces in which nothing was answered (the box was elsewhere) carry
// no figure.

// pieceP50s is each tick's median latency in µs.
func pieceP50s(w *timedWindow) []float64 {
	var out []float64
	for _, p := range w.pieces(1) {
		if len(p.lat) > 0 {
			out = append(out, median(append([]float64(nil), p.lat...)))
		}
	}
	return out
}

// pieceRates is the replies per second of each piece of k ticks.
func pieceRates(w *timedWindow, k int) []float64 {
	var out []float64
	for _, p := range w.pieces(k) {
		if p.replies > 0 && p.seconds > 0 {
			out = append(out, float64(p.replies)/p.seconds)
		}
	}
	return out
}

// pieceCPUs is the server CPU per reply, in µs, of each piece of
// cpuTicks ticks: process CPU minus the generator thread's, over the
// replies that arrived in it.
func pieceCPUs(w *timedWindow) []float64 {
	var out []float64
	for _, p := range w.pieces(cpuTicks) {
		if p.replies > 0 {
			out = append(out, float64(p.serverCPU)/1e3/float64(p.replies))
		}
	}
	return out
}

// measure runs fn as one served window.
func measure(r *relay, dur time.Duration, fn func() *timedWindow) *served {
	s := &served{dur: dur, st0: r.srv.Stats()}
	d0 := r.lim.Denied()
	s.w = fn()
	s.st1 = r.srv.Stats()
	s.denied = r.lim.Denied() - d0
	return s
}

// runOpenSteps plays the open-loop steps once; gens numbers the cookie
// generations so that no two steps of a run share one.
func runOpenSteps(r *relay, g *generator, seed uint64, window float64, gens *uint16) []*served {
	var out []*served
	for i, st := range openSteps {
		dur := time.Duration(window / float64(len(openSteps)) * float64(time.Second))
		due := poissonSchedule(seed*uint64(len(openSteps))+uint64(i), st.rate, dur)
		*gens++
		gen := *gens
		out = append(out, measure(r, dur, func() *timedWindow { return g.openLoop(st.name, due, gen) }))
	}
	return out
}

// servingChecks are the correctness gates shared by both serving
// workloads.
func servingChecks(res *runResult, g *generator, steps []*served) {
	for _, s := range steps {
		st0, st1 := s.st0, s.st1
		req := st1.Requests - st0.Requests
		accounted := (st1.Replied - st0.Replied) + (st1.Dropped() - st0.Dropped()) +
			(st1.RateLimited - st0.RateLimited) + (st1.WriteErrors - st0.WriteErrors)
		res.check(s.w.name+": every reply valid (server mode, cookie echoed, stratum 2, leap 0, Transmit >= Receive)",
			s.w.invalid == 0, "%d invalid of %d", s.w.invalid, len(s.w.lat)+s.w.invalid)
		res.check(s.w.name+": Requests = Replied + Dropped() + RateLimited + WriteErrors",
			req == accounted, "%d = %d", req, accounted)
		res.check(s.w.name+": no honest request dropped or rate-limited",
			st1.Dropped() == st0.Dropped() && st1.RateLimited == st0.RateLimited && s.denied == 0,
			"dropped %d, rate-limited %d, limiter denied %d", st1.Dropped()-st0.Dropped(), st1.RateLimited-st0.RateLimited, s.denied)
		res.check(s.w.name+": no more replies read than the server sent",
			float64(s.w.attempted-s.w.failed) <= s.replies(), "%d <= %.0f", s.w.attempted-s.w.failed, s.replies())
		res.Attempted += s.w.attempted
		res.Failed += s.w.failed
	}
	for i, s := range g.socks {
		res.check(fmt.Sprintf("generator socket %d: no I/O error", i), s.err == nil, "%v", s.err)
	}
}

// noisyRun applies the noise guard to an open-loop run.
func noisyRun(res *runResult, steps []*served) {
	for _, s := range steps {
		if l := lateP99(s.w.late); l > noisyLateUs {
			res.Noisy = true
			res.Harness += fmt.Sprintf("gen.late_p99_us %.0f on %s; ", l, s.w.name)
		}
		// A skipped send is a send more than lateLimit late: past one in a
		// hundred of them, the 99th percentile would have been too. Fewer
		// are noted, not held against the run: this box skips some in
		// every run.
		if due := s.w.attempted + s.w.skipped; s.w.skipped > 0 {
			res.Noisy = res.Noisy || s.w.skipped*100 > due
			res.Harness += fmt.Sprintf("generator skipped %d of %d late sends on %s; ", s.w.skipped, due, s.w.name)
		}
	}
	if steps[0].w.failed > 0 {
		res.Noisy = true
		res.Harness += fmt.Sprintf("%d requests failed on %s; ", steps[0].w.failed, steps[0].w.name)
	}
}

// servingLayers fills the per-layer metrics a serving window yields.
// steps are the traced windows; base the same windows untraced.
func servingLayers(res *runResult, r *relay, steps, base []*served, headline func([]*served) float64) {
	var late, dwell, resid []float64
	var samples int
	var genCPU, srvCPU, elapsed, reqs, replies, recvCalls, sendCalls, drops, kRx, kMiss, clamped, denied float64
	var spans []span
	for _, s := range steps {
		late = append(late, s.w.late...)
		dwell = append(dwell, s.w.dwell...)
		resid = append(resid, s.w.resid...)
		samples += len(s.w.lat)
		srv, gen := serverCPU(s.w.cpu[0], s.w.cpu[1])
		genCPU += float64(gen)
		srvCPU += float64(srv)
		elapsed += float64(s.w.elapsed)
		reqs += float64(s.st1.Requests - s.st0.Requests)
		replies += s.replies()
		recvCalls += float64(s.st1.RecvCalls - s.st0.RecvCalls)
		sendCalls += float64(s.st1.SendCalls - s.st0.SendCalls)
		drops += float64(s.st1.Dropped()-s.st0.Dropped()) + float64(s.st1.RateLimited-s.st0.RateLimited)
		kRx += float64(s.st1.KernelRx - s.st0.KernelRx)
		kMiss += float64(s.st1.KernelRxMissing - s.st0.KernelRxMissing)
		clamped += float64(s.st1.StampClamped - s.st0.StampClamped)
		denied += float64(s.denied)
		spans = append(spans, s.w.spans...)

		lat := append([]float64(nil), s.w.lat...)
		sort.Float64s(lat)
		switch s.w.name {
		case "r10k":
			res.layer("gen.lat_p99_us.r10k", percentileSorted(lat, 99))
		case "r40k":
			res.layer("gen.lat_p99_us.r40k", percentileSorted(lat, 99))
			res.layer("gen.lat_p999_us.r40k", percentileSorted(lat, 99.9))
		}
	}
	res.layer("gen.late_p99_us", lateP99(late))
	res.layer("gen.samples", float64(samples))
	res.layer("gen.cpu_us_per_req", genCPU/1e3/reqs)
	if len(dwell) > 0 {
		res.layer("gen.rx_dwell_p50_us", median(dwell))
	}
	sort.Float64s(resid)
	res.layer("ntp.residence_p50_us", percentileSorted(resid, 50))
	res.layer("ntp.residence_p99_us", percentileSorted(resid, 99))
	res.layer("ntp.sys_per_reply", (recvCalls+sendCalls)/replies)
	res.layer("ntp.rx_batch_avg", reqs/recvCalls)
	res.layer("ntp.server_busy_frac", srvCPU/elapsed)
	res.layer("ntp.drop_frac", drops/reqs)
	res.layer("ntp.stamp_clamped", clamped)
	res.layer("ratelimit.denied", denied)
	if kRx+kMiss > 0 {
		res.layer("ntp.rxcov", kRx/(kRx+kMiss))
	}
	res.layer("tscclock.ready_s", r.ready.Seconds())

	// The generator's own share of a request, from the spans: the send
	// syscall plus the reply's wait in the generator's receive queue.
	self := selfTimes(spans)
	if n := countSpans(spans, "req"); n > 0 {
		res.layer("gen.self_us_per_req", float64(self["gen.send"]+self["gen.rx_dwell"])/1e3/float64(n))
	}
	traced, plain := headline(steps), headline(base)
	res.layer("trace_overhead_frac", (traced-plain)/plain)
	res.Spans = len(spans)
	res.check("spans recorded", len(spans) > 0, "%d", len(spans))
}

func countSpans(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

func allSpans(steps []*served) []span {
	var out []span
	for _, s := range steps {
		out = append(out, s.w.spans...)
	}
	return out
}

// relayMicro times the single public calls of the serving path that
// need a live relay: the ServerSample closure the shard calls once per
// reply, and one scrape of the relay's metrics.
func relayMicro(res *runResult, r *relay, m micro) {
	sample := r.ml.ServerSample(ntp.RefIDFromString("TSCC"))
	var sink ntp.ClockSample
	res.layer("tscclock.sample_ns", m.time(func(n int) {
		for i := 0; i < n; i++ {
			sink = sample()
		}
	}))
	res.check("ServerSample serves a synchronized stratum-2 clock", sink.Stratum == 2 && sink.Leap == ntp.LeapNone,
		"stratum %d leap %d", sink.Stratum, sink.Leap)

	reg := tscclock.NewRelayMetrics(tscclock.RelayMetricsConfig{Server: r.srv, Multi: r.ml, Limit: r.lim})
	var cw countingWriter
	times := make([]float64, 0, m.reps)
	for i := 0; i < m.reps; i++ {
		cw = 0
		t0 := time.Now()
		err := reg.WriteText(&cw)
		times = append(times, float64(time.Since(t0))/1e6)
		res.check("metrics scrape", err == nil && cw > 0, "%v, %d bytes", err, cw)
		if err != nil {
			break
		}
	}
	res.layer("tscclock.scrape_ms", median(times))
	res.layer("tscclock.scrape_bytes", float64(cw))
}

type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// tracedServing is the traced run of a serving workload: load plays a
// third of the window, once untraced and once with spans, and headline
// reads the workload's headline figure off either for
// trace_overhead_frac.
func tracedServing(res *runResult, p params, r *relay, g *generator, headline func([]*served) float64, load func() []*served) (*runResult, error) {
	base := load()
	g.traced = true
	steps := load()
	servingChecks(res, g, append(base, steps...))
	servingLayers(res, r, steps, base, headline)
	relayMicro(res, r, microBudget(p))
	commonMicro(res, microBudget(p))
	if err := maybeWriteSpans(p, allSpans(steps)); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

func runRelayOpen(p params) (*runResult, error) {
	res := newResult("relay-open", p)
	defer reserveLoadCPU()()
	r, readies, err := setupRelay(p.setups)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	g, err := newGenerator(r.addr, false)
	if err != nil {
		return nil, err
	}
	defer g.close()

	// Warm-up, untimed: first-touch page faults of the sample buffers'
	// neighbours, the shard's slabs, the limiter's bucket.
	var gens uint16
	gens++
	g.openLoop("warm-up", poissonSchedule(p.seed, openSteps[0].rate, 300*time.Millisecond), gens)

	if p.traced {
		r40k := func(steps []*served) float64 { return best(pieceP50s(steps[1].w), true) }
		return tracedServing(res, p, r, g, r40k, func() []*served {
			return runOpenSteps(r, g, p.seed, p.seconds/3, &gens)
		})
	}

	steps := runOpenSteps(r, g, p.seed, p.seconds, &gens)
	servingChecks(res, g, steps)
	noisyRun(res, steps)
	res.ownMedian("setup_s", readies)
	for _, s := range steps {
		res.ownBest("lat_p50_us."+s.w.name, pieceP50s(s.w))
	}
	// CPU per reply and delivered rate are read off the r40k step alone:
	// at 10 000/s nearly every packet pays an idle wake-up whose CPU cost
	// depends on how the hypervisor parks the idle vCPU, which varies
	// from boot to boot.
	hi := steps[1]
	res.ownBest("server_cpu_us_per_reply", pieceCPUs(hi.w))
	// The rate delivered is the rate offered unless requests fail; the
	// median piece leaves out the pieces the generator sat out.
	res.ownMedian("replies_per_s", pieceRates(hi.w, cpuTicks))
	res.own("fail_frac", float64(res.Failed)/float64(res.Attempted))
	res.own("peak_rss_mb", peakRSSMB())
	res.finish()
	return res, nil
}

func runRelaySat(p params) (*runResult, error) {
	res := newResult("relay-sat", p)
	defer reserveLoadCPU()()
	r, readies, err := setupRelay(p.setups)
	if err != nil {
		return nil, err
	}
	defer r.stop()
	g, err := newGenerator(r.addr, false)
	if err != nil {
		return nil, err
	}
	defer g.close()

	sat := func(window float64) []*served {
		dur := time.Duration(window * float64(time.Second))
		return []*served{measure(r, dur, func() *timedWindow {
			return g.closedLoop("sat", dur, satWindow)
		})}
	}
	sat(0.3) // warm-up, untimed

	if p.traced {
		rate := func(steps []*served) float64 { return best(pieceRates(steps[0].w, 1), false) }
		return tracedServing(res, p, r, g, rate, func() []*served { return sat(p.seconds / 3) })
	}

	steps := sat(p.seconds)
	s := steps[0]
	servingChecks(res, g, steps)
	res.ownMedian("setup_s", readies)
	res.ownBest("rtt_p50_us", pieceP50s(s.w))
	res.ownBest("server_cpu_us_per_reply", pieceCPUs(s.w))
	res.ownBest("replies_per_s", pieceRates(s.w, 1))
	res.own("fail_frac", float64(res.Failed)/float64(res.Attempted))
	res.own("peak_rss_mb", peakRSSMB())
	res.finish()
	return res, nil
}

// maybeWriteSpans writes the spans of a traced run where -spans says.
func maybeWriteSpans(p params, spans []span) error {
	if p.spans == "" {
		return nil
	}
	return writeSpans(p.spans, spans)
}
