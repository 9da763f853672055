package main

import (
	"context"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ntp"
	"repro/internal/ratelimit"
	"repro/internal/window"
)

// Microtimings: the cost of single public calls of each layer, taken
// in the traced run. Each is the median of microReps repetitions of
// microCalls calls (fewer for the calls that cost microseconds), so
// one stall of the box spoils one repetition.

const (
	microReps  = 15
	microCalls = 1 << 20
)

// micro is the budget of one microtiming: reps repetitions of calls
// calls.
type micro struct{ reps, calls int }

// microBudget is the full budget, or a token one for -quick.
func microBudget(p params) micro {
	if p.quick {
		return micro{3, 1 << 12}
	}
	return micro{microReps, microCalls}
}

// few is the budget for a call that costs microseconds, not
// nanoseconds: the same repetitions of at most `calls` calls.
func (m micro) few(calls int) micro { return micro{m.reps, min(calls, m.calls)} }

// time returns the median ns per call of fn(n), which must make n
// calls.
func (m micro) time(fn func(n int)) float64 {
	fn(m.calls/16 + 1) // warm-up
	times := make([]float64, 0, m.reps)
	for r := 0; r < m.reps; r++ {
		t0 := time.Now()
		fn(m.calls)
		times = append(times, float64(time.Since(t0))/float64(m.calls))
	}
	return median(times)
}

// sinks keep the compiler from discarding the timed calls.
var (
	sinkBytes [ntp.PacketSize]byte
	sinkF     float64
	sinkB     bool
	sinkErr   error
)

// commonMicro times the calls that need nothing but the package
// itself, on every workload.
func commonMicro(res *runResult, m micro) {
	pkt := ntp.Packet{Version: 4, Mode: ntp.ModeServer, Stratum: 2, Poll: 6, Precision: -29,
		RefID: ntp.RefIDFromString("TSCC"), Origin: ntp.Time64(makeCookie(1, 1)),
		Receive: ntp.Time64FromSeconds(3.9e9), Transmit: ntp.Time64FromSeconds(3.9e9 + 1e-5)}
	res.layer("ntp.marshal_ns", m.time(func(n int) {
		for i := 0; i < n; i++ {
			pkt.Poll = int8(i)
			sinkBytes = pkt.Marshal()
		}
	}))
	wire := pkt.Marshal()
	res.layer("ntp.unmarshal_ns", m.time(func(n int) {
		var p ntp.Packet
		for i := 0; i < n; i++ {
			sinkErr = p.Unmarshal(wire[:])
		}
	}))
	f := parseReply(wire[:])
	res.check("the generator's reply parser agrees with the codec", sinkErr == nil && f.valid && f.cookie == makeCookie(1, 1),
		"unmarshal %v, valid %v, cookie %#x", sinkErr, f.valid, f.cookie)

	lim := ratelimit.New(ratelimit.Config{Rate: 1e9, Burst: 2e9})
	res.layer("ratelimit.allow_ns", m.time(func(n int) {
		for i := 0; i < n; i++ {
			sinkB = lim.Allow(0x7f000001)
		}
	}))
	// A new prefix per call: the insert path. A fresh limiter per
	// repetition, and fewer calls than its table holds, keep it on that
	// path instead of the table-full one.
	const newKeys = 32768
	res.layer("ratelimit.allow_new_ns", m.few(newKeys).time(func(n int) {
		l := ratelimit.New(ratelimit.Config{})
		for i := 0; i < n; i++ {
			sinkB = l.Allow(uint64(i) << 8)
		}
	}))

	var mt window.MinTracker
	seq := 0
	res.layer("window.mintracker_push_ns", m.time(func(n int) {
		for i := 0; i < n; i++ {
			seq++
			// A sawtooth: most pushes pop a few candidates, none empties
			// or grows the deque without bound.
			mt.Push(seq, float64(seq&63))
			mt.EvictBefore(seq - 1024)
		}
	}))
	ring := window.NewRing[core.Input](1024)
	res.layer("window.ring_push_ns", m.time(func(n int) {
		for i := 0; i < n; i++ {
			ring.PushBack(core.Input{Ta: uint64(i)})
			if ring.Len() > 1000 {
				ring.PopFront()
			}
		}
	}))

	var ctr metrics.Counter
	res.layer("metrics.counter_inc_ns", m.time(func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	}))

	clockMicro(res, m)
	exchangeMicro(res, m)
}

// clockMicro times uncontended reads of a synchronized ensemble and a
// synchronized single clock, and one step of the trace generator, on
// a one-day trace of its own.
func clockMicro(res *runResult, m micro) {
	var tr *syncTrace
	perTrace := m.few(1).time(func(int) {
		t, err := generateTrace(1, 1)
		if err != nil {
			res.check("micro trace", false, "%v", err)
			return
		}
		tr = t
	})
	if tr == nil {
		return
	}
	res.layer("sim.next_ns", perTrace/float64(tr.emitted))
	rp, ens, err := tr.publicReplayer()
	if err == nil {
		_, err = tr.pass(rp, nil, nil, time.Time{})
	}
	if err != nil {
		res.check("micro replay", false, "%v", err)
		return
	}
	T := tr.ex[len(tr.ex)-1].Tf
	ro := ens.Readout()
	res.layer("ensemble.read_ns", m.time(func(n int) {
		for i := 0; i < n; i++ {
			sinkF = ro.AbsoluteTime(T + uint64(i))
		}
	}))
	cro := ro.Servers[0].Clock
	res.layer("core.read_ns", m.time(func(n int) {
		for i := 0; i < n; i++ {
			sinkF = cro.AbsoluteTime(T + uint64(i))
		}
	}))
	res.check("micro reads finite", finite(sinkF), "%v", sinkF)
}

// exchangeMicro times Client.Exchange against a loopback stratum-1
// server: the unit of relay start-up, which needs some tens of them
// per upstream before it is ready.
func exchangeMicro(res *runResult, m micro) {
	srv, err := ntp.NewServer(ntp.ServerConfig{Clock: ntp.SystemServerClock()})
	if err != nil {
		res.check("exchange micro", false, "%v", err)
		return
	}
	sh, err := srv.ListenShards("udp", "127.0.0.1:0", 1)
	if err != nil {
		res.check("exchange micro", false, "%v", err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sh.Serve(ctx) }()
	defer func() {
		cancel()
		<-done
	}()
	conn, err := net.Dial("udp", sh.Addr().String())
	if err != nil {
		res.check("exchange micro", false, "%v", err)
		return
	}
	defer conn.Close()
	counter, period := ntp.MonotonicCounter()
	cl := ntp.NewClient(conn, counter, time.Second)
	cl.EnableKernelStamps(period)
	const exchanges = 256
	ns := m.few(exchanges).time(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cl.Exchange(); err != nil {
				sinkErr = err
			}
		}
	})
	res.layer("ntp.exchange_us", ns/1e3)
	st := cl.StampStats()
	if tot := st.TxStamped + st.TxMissing + st.RxStamped + st.RxMissing; tot > 0 {
		res.layer("ntp.client_kstamp_cov", float64(st.TxStamped+st.RxStamped)/float64(tot))
	}
}
