package sim

// Pull-based trace generation: the streaming half of the evaluation
// pipeline. Generate/GenerateMulti materialize a whole trace in RAM,
// which caps experiments at what fits in memory; Stream and MultiStream
// produce the *bit-identical* exchange sequence one record at a time,
// so multi-week scenarios run in constant memory — the only state is
// the substrate models themselves, and the oscillator's random-walk
// cache is trimmed behind the emission front once trimming is enabled
// (SetTrim). The batch generators are thin collectors over the streams;
// digest_test.go pins all three — stream, trimmed stream, collector —
// to committed sha256 digests of the emitted bits.

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

// Stream generates the exchanges of a single-server scenario one at a
// time. For a given scenario it yields exactly the sequence
// Generate(sc).Exchanges, bit for bit, without ever holding more than
// one exchange; Generate itself is implemented as a collector over it.
// A Stream is single-use and not safe for concurrent use.
type Stream struct {
	sc        Scenario
	osc       *oscillator.Oscillator
	host      *netem.HostStamp
	fwd, back *netem.Path
	srv       *netem.Server
	missSrc   *rng.Source
	dagSrc    *rng.Source
	pollSrc   *rng.Source

	n, i int
	trim bool
}

// NewStream validates the scenario and builds the substrate models,
// consuming the seed exactly as Generate does.
func NewStream(sc Scenario) (*Stream, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(sc.Seed)
	oscSrc := root.Split()
	fwdSrc := root.Split()
	backSrc := root.Split()
	srvSrc := root.Split()
	hostSrc := root.Split()
	missSrc := root.Split()
	dagSrc := root.Split()
	pollSrc := root.Split()

	osc, err := oscillator.New(sc.Oscillator, oscSrc.Uint64())
	if err != nil {
		return nil, err
	}
	fwd, err := netem.NewPath(sc.Server.Forward, fwdSrc)
	if err != nil {
		return nil, fmt.Errorf("sim: forward path: %w", err)
	}
	back, err := netem.NewPath(sc.Server.Backward, backSrc)
	if err != nil {
		return nil, fmt.Errorf("sim: backward path: %w", err)
	}
	srv, err := netem.NewServer(sc.Server.Server, srvSrc)
	if err != nil {
		return nil, err
	}
	host, err := netem.NewHostStamp(sc.Host, hostSrc)
	if err != nil {
		return nil, err
	}
	return &Stream{
		sc: sc, osc: osc, host: host, fwd: fwd, back: back, srv: srv,
		missSrc: missSrc, dagSrc: dagSrc, pollSrc: pollSrc,
		n: int(sc.Duration / sc.PollPeriod),
	}, nil
}

// Len returns the total number of exchanges the stream will emit
// (completed and lost).
func (st *Stream) Len() int { return st.n }

// Osc returns the oscillator realization driving the host stamps, for
// oracle rate references. After SetTrim(true) it only answers queries
// near or after the emission front.
func (st *Stream) Osc() *oscillator.Oscillator { return st.osc }

// SetTrim enables trimming the oscillator's random-walk cache behind
// the emission front: the one internal state that otherwise grows with
// trace duration. Trimming never changes emitted values; it only
// forbids oscillator queries far in the past, so leave it off when the
// caller needs the full Osc() history afterwards (Generate does).
func (st *Stream) SetTrim(on bool) { st.trim = on }

// Next emits the next exchange; ok is false when the stream is done.
func (st *Stream) Next() (ex Exchange, ok bool) {
	if st.i >= st.n {
		return Exchange{}, false
	}
	i := st.i
	st.i++

	sc := &st.sc
	jitter := (st.pollSrc.Float64() - 0.5) * sc.PollJitterFrac * sc.PollPeriod
	tStamp := float64(i)*sc.PollPeriod + sc.PollPeriod/2 + jitter

	ex = Exchange{Seq: i}

	// Loss and outage gaps: the exchange never completes. Note the
	// path/server models are still *not* advanced: a lost packet
	// consumes no queueing draws, matching the paper's treatment of
	// loss as absence of data.
	lost := st.missSrc.Bool(sc.LossProb)
	for _, g := range sc.Gaps {
		if tStamp >= g.From && tStamp < g.To {
			lost = true
		}
	}
	if lost {
		ex.Lost = true
		return ex, true
	}

	stampExchange(&ex, tStamp, st.osc, st.host, st.fwd, st.back, st.srv, st.dagSrc, sc.DAGJitter)
	if st.trim && i%trimEvery == 0 {
		st.osc.TrimBefore(tStamp - trimMargin)
	}
	return ex, true
}

// MultiStream generates the exchanges of a multi-server scenario in
// emission order, one at a time: the lazy k-way merge of the per-server
// schedules. For a given scenario it yields exactly the sequence
// GenerateMulti(sc).Exchanges, bit for bit: each server's poll jitters
// are read from a fast-forwarded clone of the shared jitter stream (the
// batch generator draws them server-major before sorting), and every
// other model draw happens in merged emission order, exactly as the
// batch generator's sorted loop performs them. A MultiStream is
// single-use and not safe for concurrent use.
type MultiStream struct {
	sc   MultiScenario
	osc  *oscillator.Oscillator
	host *netem.HostStamp
	fwd  []*netem.Path
	back []*netem.Path
	srv  []*netem.Server
	miss []*rng.Source
	dag  *rng.Source

	// Per-server lazy schedules: jit[k] yields server k's jitters in
	// sequence order, nextT/nextSeq the server's pending emission
	// (nextSeq == perServer means exhausted).
	jit       []*rng.Source
	nextT     []float64
	nextSeq   []int
	perServer int
	emitted   int
	trim      bool
}

// NewMultiStream validates the scenario and builds the substrate
// models, consuming the seed exactly as GenerateMulti does.
func NewMultiStream(sc MultiScenario) (*MultiStream, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(sc.Seed)
	oscSrc := root.Split()
	hostSrc := root.Split()
	dagSrc := root.Split()
	pollSrc := root.Split()

	osc, err := oscillator.New(sc.Oscillator, oscSrc.Uint64())
	if err != nil {
		return nil, err
	}
	host, err := netem.NewHostStamp(sc.Host, hostSrc)
	if err != nil {
		return nil, err
	}

	nSrv := len(sc.Servers)
	st := &MultiStream{
		sc: sc, osc: osc, host: host, dag: dagSrc,
		fwd:  make([]*netem.Path, nSrv),
		back: make([]*netem.Path, nSrv),
		srv:  make([]*netem.Server, nSrv),
		miss: make([]*rng.Source, nSrv),
		jit:  make([]*rng.Source, nSrv),

		nextT:     make([]float64, nSrv),
		nextSeq:   make([]int, nSrv),
		perServer: int(sc.Duration / sc.PollPeriod),
	}
	for k, spec := range sc.Servers {
		if st.fwd[k], err = netem.NewPath(spec.Forward, root.Split()); err != nil {
			return nil, fmt.Errorf("sim: server %d forward path: %w", k, err)
		}
		if st.back[k], err = netem.NewPath(spec.Backward, root.Split()); err != nil {
			return nil, fmt.Errorf("sim: server %d backward path: %w", k, err)
		}
		if st.srv[k], err = netem.NewServer(spec.Server, root.Split()); err != nil {
			return nil, fmt.Errorf("sim: server %d: %w", k, err)
		}
		st.miss[k] = root.Split()
	}
	// The batch generator draws all jitters from one stream in
	// server-major order; server k's draws are positions
	// [k·perServer, (k+1)·perServer). A fast-forwarded clone per server
	// reads the identical subsequence lazily, in constant memory.
	for k := 0; k < nSrv; k++ {
		st.jit[k] = pollSrc.Clone()
		st.jit[k].SkipFloat64(k * st.perServer)
		st.nextSeq[k] = -1
		st.advanceServer(k)
	}
	return st, nil
}

// advanceServer draws server k's next emission slot.
func (st *MultiStream) advanceServer(k int) {
	st.nextSeq[k]++
	if st.nextSeq[k] >= st.perServer {
		st.nextT[k] = math.Inf(1)
		return
	}
	sc := &st.sc
	jitter := (st.jit[k].Float64() - 0.5) * sc.PollJitterFrac * sc.PollPeriod
	st.nextT[k] = (float64(st.nextSeq[k])+0.5+float64(k)/float64(len(sc.Servers)))*sc.PollPeriod + jitter
}

// Len returns the total number of exchanges the stream will emit.
func (st *MultiStream) Len() int { return st.perServer * len(st.sc.Servers) }

// Osc returns the shared oscillator realization.
func (st *MultiStream) Osc() *oscillator.Oscillator { return st.osc }

// SetTrim enables oscillator cache trimming behind the emission front;
// see Stream.SetTrim.
func (st *MultiStream) SetTrim(on bool) { st.trim = on }

// Next emits the next exchange in global emission order; ok is false
// when every server's schedule is exhausted.
func (st *MultiStream) Next() (ex MultiExchange, ok bool) {
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
		return MultiExchange{}, false
	}
	sc := &st.sc
	ex = MultiExchange{Server: k, Exchange: Exchange{Seq: st.nextSeq[k]}}

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
	if lost {
		ex.Lost = true
	} else {
		stampExchange(&ex.Exchange, t, st.osc, st.host, st.fwd[k], st.back[k], st.srv[k], st.dag, sc.DAGJitter)
	}
	st.advanceServer(k)
	st.emitted++
	if st.trim && st.emitted%trimEvery == 0 {
		st.osc.TrimBefore(t - trimMargin)
	}
	return ex, true
}
