package sim

// Pull-based trace generation: the streaming half of the evaluation
// pipeline. MultiStream produces a scenario's exchanges one record at a
// time, so multi-week scenarios run in constant memory — the only state
// is the substrate models themselves, and the stamping oscillators'
// random-walk caches are trimmed behind the emission front. A
// single-server scenario is a one-server MultiScenario and runs through
// the same stream. Generate is a thin collector over the stream's
// records; digest_test.go pins the stream, with each exchange's Truth,
// to committed sha256 digests of the emitted bits at every worker
// count, and holds the collector's records equal to the stream's.
//
// Every exchange is generated in two stages (sim.go). Stage 1 draws
// what every server shares, in emission order: the schedule, loss and
// faults, the host's stamping noise and the monitor's. Stage 2 stamps
// the exchange through its own server's path and server models and
// reads the counter. Stage 2 of different servers shares no state but
// the oscillator, whose realization is a pure function of its seed, so
// MultiStream hands each server to one worker with an oscillator of its
// own and emits the same bits whatever the number of workers.

import (
	"fmt"
	"math"

	"repro/internal/netem"
	"repro/internal/oscillator"
	"repro/internal/rng"
)

// trimMargin is how far behind the emission front the oscillator's
// random-walk cache is trimmed. Stamping queries the oscillator only
// between the previous emission and the current one plus a few
// milliseconds of RTT, so ten minutes of slack is vastly conservative
// and still bounds the cache at a few dozen steps.
const trimMargin = 600

// trimEvery is the emission interval between cache trims.
const trimEvery = 256

// chunkLen is how many exchanges a MultiStream generates at a time,
// and chunksAhead how many chunks it fills ahead of the one the caller
// drains.
const (
	chunkLen    = 1024
	chunksAhead = 3
)

// MultiStream generates the exchanges of a scenario in emission order,
// one at a time: the lazy k-way merge of the per-server schedules. Each
// server's poll jitters are read from a fast-forwarded clone of the
// shared jitter stream, server k's from position k·Len()/N on, and
// every other model draw happens in merged emission order.
//
// Goroutines fill the next chunksAhead chunks of chunkLen exchanges
// while the caller drains the current one: for each chunk stage 1
// first, then stage 2 split over one worker per usable CPU (the
// calling thread's affinity on Linux, GOMAXPROCS elsewhere), at least
// one and at most one per server. Worker w owns the servers k ≡ w
// modulo the worker count and an oscillator realization of its own,
// which it trims after every trimEvery-th emission. Each goroutine
// exits when its stage of its chunk is done, so an abandoned stream
// leaves none behind and needs no Close. The emitted bits do not
// depend on the number of workers. A MultiStream is single-use and not
// safe for concurrent use.
type MultiStream struct {
	sc  MultiScenario
	osc *oscillator.Oscillator // Osc's realization, which nothing stamps with

	// Stage 1, touched by one goroutine at a time: the shared host and
	// DAG sources, each server's loss stream, the per-server lazy
	// schedules — jit[k] yields server k's jitters in sequence order,
	// nextT/nextSeq the server's pending emission (nextSeq == perServer
	// means exhausted) — and the count of exchanges drawn.
	host      *netem.HostStamp
	dag       *rng.Source
	miss      []*rng.Source
	jit       []*rng.Source
	nextT     []float64
	nextSeq   []int
	perServer int
	drawn     int

	// Stage 2: each server's models and the oscillators that stamp,
	// one per worker.
	fwd  []*netem.Path
	back []*netem.Path
	srv  []*netem.Server
	oscs []*oscillator.Oscillator

	// The chunk the caller drains and the chunks being filled, oldest
	// first; ahead is nil until the first Next starts the fills.
	cur       *chunk
	ahead     []*chunk
	pos       int
	exhausted bool

	truth Truth // the last exchange's
}

// chunk is a run of consecutive exchanges, their stage-1 draws and
// their Truths; first is the emission index of ex[0]. Stage 1 fills ex
// and d and zeroes truth; each worker writes the truth of the exchanges
// it stamps. Its fill closes drawn when stage 1 is done, and stamped[w]
// when worker w's stage 2 is.
type chunk struct {
	first int
	ex    []MultiExchange
	d     []draw
	truth []Truth

	drawn   chan struct{}
	stamped []chan struct{}
}

// NewMultiStream validates the scenario and builds the substrate
// models.
func NewMultiStream(sc MultiScenario) (*MultiStream, error) {
	return newMultiStream(sc, usableCPUs())
}

// sources are the random streams a scenario's seed splits into: the
// shared ones, and per server the two paths', the server's and the
// loss stream.
type sources struct {
	osc, host, dag, poll *rng.Source
	fwd, back, srv, miss []*rng.Source
}

// splitSeed splits seed for n servers. Two or more take osc, host, dag
// and poll, then fwd, back, srv and miss server by server. One server
// takes osc, fwd, back, srv, host, miss, dag, poll — the order
// single-server traces have always been drawn in, so they keep their
// bits.
func splitSeed(seed uint64, n int) sources {
	root := rng.New(seed)
	s := sources{
		fwd: make([]*rng.Source, n), back: make([]*rng.Source, n),
		srv: make([]*rng.Source, n), miss: make([]*rng.Source, n),
	}
	if n == 1 {
		s.osc = root.Split()
		s.fwd[0], s.back[0], s.srv[0] = root.Split(), root.Split(), root.Split()
		s.host = root.Split()
		s.miss[0] = root.Split()
		s.dag, s.poll = root.Split(), root.Split()
		return s
	}
	s.osc, s.host, s.dag, s.poll = root.Split(), root.Split(), root.Split(), root.Split()
	for k := range n {
		s.fwd[k], s.back[k], s.srv[k], s.miss[k] = root.Split(), root.Split(), root.Split(), root.Split()
	}
	return s
}

// newMultiStream builds a stream that stamps with max(1, min(cpus,
// servers)) workers.
func newMultiStream(sc MultiScenario, cpus int) (*MultiStream, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	nSrv := len(sc.Servers)
	src := splitSeed(sc.Seed, nSrv)
	oscSeed := src.osc.Uint64()
	osc, err := oscillator.New(sc.Oscillator, oscSeed)
	if err != nil {
		return nil, err
	}
	host, err := netem.NewHostStamp(sc.Host, src.host)
	if err != nil {
		return nil, err
	}

	st := &MultiStream{
		sc: sc, osc: osc, host: host, dag: src.dag, miss: src.miss,
		fwd:  make([]*netem.Path, nSrv),
		back: make([]*netem.Path, nSrv),
		srv:  make([]*netem.Server, nSrv),
		jit:  make([]*rng.Source, nSrv),
		oscs: make([]*oscillator.Oscillator, max(1, min(cpus, nSrv))),

		nextT:     make([]float64, nSrv),
		nextSeq:   make([]int, nSrv),
		perServer: int(sc.Duration / sc.PollPeriod),
	}
	for k, spec := range sc.Servers {
		if st.fwd[k], err = netem.NewPath(spec.Forward, src.fwd[k]); err != nil {
			return nil, fmt.Errorf("sim: server %d forward path: %w", k, err)
		}
		if st.back[k], err = netem.NewPath(spec.Backward, src.back[k]); err != nil {
			return nil, fmt.Errorf("sim: server %d backward path: %w", k, err)
		}
		if st.srv[k], err = netem.NewServer(spec.Server, src.srv[k]); err != nil {
			return nil, fmt.Errorf("sim: server %d: %w", k, err)
		}
	}
	// Server k's jitters are positions [k·perServer, (k+1)·perServer)
	// of the one poll stream; a fast-forwarded clone per server reads
	// them lazily, in constant memory.
	for k := 0; k < nSrv; k++ {
		st.jit[k] = src.poll.Clone()
		st.jit[k].SkipFloat64(k * st.perServer)
		st.nextSeq[k] = -1
		st.advanceServer(k)
	}
	for w := range st.oscs {
		if st.oscs[w], err = oscillator.New(sc.Oscillator, oscSeed); err != nil {
			return nil, err
		}
	}
	st.cur = st.newChunk()
	return st, nil
}

// newChunk returns an empty chunk whose fill counts as done.
func (st *MultiStream) newChunk() *chunk {
	size := min(chunkLen, st.Len())
	done := make(chan struct{})
	close(done)
	c := &chunk{
		ex: make([]MultiExchange, 0, size), d: make([]draw, 0, size), truth: make([]Truth, 0, size),
		drawn: done,
	}
	for range st.oscs {
		c.stamped = append(c.stamped, done)
	}
	return c
}

// advanceServer draws server k's next emission slot.
func (st *MultiStream) advanceServer(k int) {
	st.nextSeq[k]++
	if st.nextSeq[k] >= st.perServer {
		st.nextT[k] = math.Inf(1)
		return
	}
	sc := &st.sc
	// The conversions keep each product out of a fused multiply-add, so
	// every GOARCH rounds alike (Go spec, "Arithmetic operators").
	jitter := float64((st.jit[k].Float64() - 0.5) * sc.PollJitterFrac * sc.PollPeriod)
	st.nextT[k] = float64((float64(st.nextSeq[k])+0.5+float64(k)/float64(len(sc.Servers)))*sc.PollPeriod) + jitter
}

// Len returns the total number of exchanges the stream will emit.
func (st *MultiStream) Len() int { return st.perServer * len(st.sc.Servers) }

// Osc returns the oscillator realization driving the host stamps, for
// oracle rate references. It is the caller's own: the workers stamp
// with realizations of the same seed, so every query, at any instant
// of the trace, answers what the stamps read, and its cache holds only
// what the caller queried.
func (st *MultiStream) Osc() *oscillator.Oscillator { return st.osc }

// StampCacheLen returns the largest random-walk cache among the
// oscillators that stamp the exchanges. Call it once Next has reported
// the end of the stream.
func (st *MultiStream) StampCacheLen() int {
	n := 0
	for _, osc := range st.oscs {
		n = max(n, osc.RandomWalkCacheLen())
	}
	return n
}

// Truth returns the ground truth of the exchange Next last returned:
// zero for a lost one, before the first Next and after the last.
func (st *MultiStream) Truth() Truth { return st.truth }

// Next emits the next exchange in global emission order; ok is false
// when every server's schedule is exhausted.
func (st *MultiStream) Next() (ex MultiExchange, ok bool) {
	if st.pos == len(st.cur.ex) && !st.advance() {
		st.truth = Truth{}
		return MultiExchange{}, false
	}
	ex, st.truth = st.cur.ex[st.pos], st.cur.truth[st.pos]
	st.pos++
	return ex, true
}

// drawNext is stage 1 for the next exchange: the merge of the per-server
// schedules, loss, gaps and faults, and the shared draws if the
// exchange is still alive. It reports false when every schedule is
// exhausted.
func (st *MultiStream) drawNext(ex *MultiExchange, d *draw) bool {
	// Linear argmin over the per-server pending slots: server counts are
	// single digits, and the deterministic lowest-index tie-break keeps
	// the merge reproducible.
	k, t := -1, math.Inf(1)
	for j := range st.nextT {
		if st.nextT[j] < t {
			k, t = j, st.nextT[j]
		}
	}
	if k < 0 {
		return false
	}
	sc := &st.sc
	*ex = MultiExchange{Server: k, Exchange: Exchange{Seq: uint32(st.nextSeq[k])}}
	lost := st.miss[k].Bool(sc.LossProb)
	for _, g := range sc.Gaps {
		if t >= g.From && t < g.To {
			lost = true
		}
	}
	// The fault schedule (outages, partitions) is consulted only for
	// exchanges still alive, so an all-clear schedule draws nothing and
	// leaves the trace bit-identical.
	if !lost {
		lost = sc.faultLost(k, t, st.miss[k])
	}
	st.advanceServer(k)
	*d = draw{t: t, deadline: st.nextT[k]}
	if lost {
		ex.Lost = true
	} else {
		d.drawShared(st.host, st.dag, sc.DAGJitter)
	}
	return true
}

// advance makes the next chunk current and reports whether it holds
// any exchange: it waits for the oldest chunk being filled and starts a
// fill into the chunk just drained, so chunksAhead are always in
// flight. The first call starts the first chunksAhead fills.
func (st *MultiStream) advance() bool {
	if st.exhausted {
		return false
	}
	if st.ahead == nil {
		st.ahead = make([]*chunk, chunksAhead)
		prev := st.cur
		for i := range st.ahead {
			st.ahead[i] = st.newChunk()
			st.start(st.ahead[i], prev)
			prev = st.ahead[i]
		}
	}
	next := st.ahead[0]
	for _, done := range next.stamped {
		<-done
	}
	last := st.ahead[len(st.ahead)-1]
	copy(st.ahead, st.ahead[1:])
	st.ahead[len(st.ahead)-1], st.cur = st.cur, next
	if len(next.ex) == chunkLen {
		st.start(st.ahead[len(st.ahead)-1], last)
	}
	st.pos = 0
	st.exhausted = len(next.ex) < chunkLen
	return len(next.ex) > 0
}

// start fills c in the background after prev, the chunk before it.
// One goroutine runs stage 1 once prev's stage 1 is done; one per
// worker runs that worker's stage 2 once c's stage 1 and the worker's
// stage 2 of prev are done. So every stage's state is touched by one
// goroutine at a time, in chunk order, while stage 1 runs ahead of
// stage 2 and each worker runs ahead of the others.
func (st *MultiStream) start(c, prev *chunk) {
	drawn := make(chan struct{})
	c.drawn = drawn
	go func(after chan struct{}) {
		<-after
		c.first = st.drawn
		c.ex, c.d, c.truth = c.ex[:0], c.d[:0], c.truth[:0]
		var ex MultiExchange
		var d draw
		for len(c.ex) < chunkLen && st.drawNext(&ex, &d) {
			c.ex = append(c.ex, ex)
			c.d = append(c.d, d)
			c.truth = append(c.truth, Truth{})
		}
		st.drawn += len(c.ex)
		close(drawn)
	}(prev.drawn)
	for w := range c.stamped {
		stamped := make(chan struct{})
		c.stamped[w] = stamped
		go func(after chan struct{}) {
			<-drawn
			<-after
			st.stampWorker(w, c)
			close(stamped)
		}(prev.stamped[w])
	}
}

// stampWorker is stage 2 for worker w: it stamps, in emission order,
// every live exchange of c whose server it owns, with its own
// oscillator, and records each one's Truth. It trims the oscillator
// after every trimEvery-th emission, whatever the worker count, so the
// cache stays bounded.
func (st *MultiStream) stampWorker(w int, c *chunk) {
	osc, n := st.oscs[w], len(st.oscs)
	for i := range c.ex {
		// Only the owner reads an exchange's Lost: stage 2 may set it.
		ex := &c.ex[i]
		if k := ex.Server; k%n == w && !ex.Lost {
			c.truth[i] = stamp(&ex.Exchange, &c.d[i], osc, st.fwd[k], st.back[k], st.srv[k])
		}
		if (c.first+i+1)%trimEvery == 0 {
			osc.TrimBefore(c.d[i].t - trimMargin)
		}
	}
}
