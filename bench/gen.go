package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/rng"
)

// The load generator of the serving workloads: ONE goroutine locked to
// one OS thread, driving at most two connected UDP sockets with
// non-blocking batched I/O. Nothing inside a timed window allocates;
// every sample buffer is sized before the window opens. On a two-CPU
// box one CPU generates and the other serves: the open loop spins on
// its schedule, the closed loop sleeps on its sockets, and either way
// the generator's own CPU time is measured (RUSAGE_THREAD) so it can
// be subtracted from the process total.

const (
	genSockets = 2
	genBatch   = 32 // datagrams per sendmmsg/recvmmsg on the generator side
	pktSize    = 48 // NTP v4 header, no extensions

	// replyDeadline is the latency limit: a request unanswered this
	// long after it was due (open loop) or sent (closed loop) has
	// failed, whatever arrives later. It is a loss detector, not a
	// service level: this shared box freezes a vCPU for up to a third
	// of a second now and then, and a request in flight across such a
	// freeze was delayed, not lost.
	replyDeadline = time.Second

	// lateLimit is how far behind schedule the open loop still sends.
	// A request the generator thread could not send within lateLimit of
	// its due instant was delayed by the harness (its vCPU was taken
	// away), not by the relay; sending the backlog in one burst would
	// turn the harness's stall into load the schedule never asked for.
	// Such requests are skipped, counted, and mark the run noisy.
	lateLimit = 5 * time.Millisecond

	// genRcvbuf is the receive buffer asked for on each generator
	// socket: room for the burst of replies that follows a frozen shard
	// coming back.
	genRcvbuf = 4 << 20

	// cookieTag marks this generator's requests in the top 16 bits of
	// the Transmit field, which the server echoes as Origin.
	cookieTag = 0x6267

	// traceEvery is the span sampling stride of a traced run.
	traceEvery = 64
)

// makeCookie packs a request's identity into the 64-bit Transmit
// field: tag, generation, index. The generation changes whenever the
// index space is reused (a new step of the open loop, a slot resent
// by the closed loop), so a reply from an earlier incarnation can
// never be matched to the current one.
func makeCookie(gen uint16, idx uint32) uint64 {
	return cookieTag<<48 | uint64(gen)<<32 | uint64(idx)
}

// splitCookie is the inverse of makeCookie; ok is false for foreign
// traffic.
func splitCookie(c uint64) (gen uint16, idx uint32, ok bool) {
	return uint16(c >> 32), uint32(c), c>>48 == cookieTag
}

// putRequest writes a client-mode NTPv4 request carrying cookie c.
func putRequest(b *[pktSize]byte, c uint64) {
	*b = [pktSize]byte{}
	b[0] = 4<<3 | 3 // LI 0, VN 4, mode 3 (client)
	b[2] = 6        // poll
	binary.BigEndian.PutUint64(b[40:48], c)
}

// replyFields is what the generator reads out of a reply, parsed by
// field offset, independently of the codec under test.
type replyFields struct {
	cookie    uint64 // Origin: the request's Transmit, echoed
	residence int64  // Transmit − Receive in ns (server residence, RX backdate included)
	receive   uint64 // Receive as NTP 32.32 fixed point
	valid     bool   // server mode, leap 0, stratum 2, Transmit ≥ Receive
}

// parseReply validates a reply the way a downstream client of the
// stratum-2 relay would: server mode, synchronized, stratum 2, and a
// transmit stamp not before the receive stamp.
func parseReply(b []byte) replyFields {
	if len(b) < pktSize {
		return replyFields{}
	}
	f := replyFields{
		cookie:  binary.BigEndian.Uint64(b[24:32]),
		receive: binary.BigEndian.Uint64(b[32:40]),
	}
	xmt := binary.BigEndian.Uint64(b[40:48])
	f.valid = b[0]&7 == 4 && b[0]>>6 == 0 && b[1] == 2 && xmt >= f.receive
	if f.valid {
		// 32.32 fixed-point seconds to ns without overflow for any
		// residence under four seconds.
		f.residence = int64((xmt - f.receive) * 1e9 >> 32)
	}
	return f
}

// poissonSchedule returns the due instants (ns from the start of the
// step) of an open-loop arrival process at rate req/s over dur: the
// same seed gives the same schedule, bit for bit.
func poissonSchedule(seed uint64, rate float64, dur time.Duration) []int64 {
	src := rng.New(seed)
	due := make([]int64, 0, int(rate*dur.Seconds()*1.05)+16)
	t := 0.0
	for {
		t += src.Exponential(1 / rate)
		ns := int64(t * 1e9)
		if ns >= int64(dur) {
			return due
		}
		due = append(due, ns)
	}
}

// cpuTimes is one reading of the process and generator-thread CPU
// clocks, in ns (user + system).
type cpuTimes struct{ process, thread int64 }

// serverCPU splits the process's CPU time over a window: everything
// the generator thread did not burn is the relay's (shard, pollers,
// upstream stubs, runtime).
func serverCPU(before, after cpuTimes) (server, generator int64) {
	generator = after.thread - before.thread
	return (after.process - before.process) - generator, generator
}

// timedWindow is what one timed window of serving load measured. All
// slices are sized before the window opens.
type timedWindow struct {
	name      string
	attempted int
	skipped   int // open loop: due requests the generator was too late to send
	failed    int // unanswered within replyDeadline, or answered invalidly
	invalid   int // replies that failed validation (counted in failed too)
	stale     int // replies carrying an earlier generation or a foreign cookie
	elapsed   time.Duration
	cpu       [2]cpuTimes // before, after

	lat   []float64 // µs, due (open) or sent (closed) → userspace read, in arrival order
	late  []float64 // µs, due → send syscall (open loop only)
	resid []float64 // µs, reply Transmit − Receive
	dwell []float64 // µs, kernel RX stamp → userspace read
	marks []mark    // one at the start, then one per tick of load

	spans []span // traced runs only
}

// tick is the length of a piece. Every timing of the benchmark is
// taken piece by piece and reported as the best decile of the pieces
// (see best), so that what is reported is the software's time and not
// the share of the window this shared box spent elsewhere. Short
// pieces give the decile many chances to land between two
// interruptions: ten runs taken over eleven minutes put the r40k
// latency figure within 8.6 % of itself (quartile spread) at 10 ms,
// 9.7 % at 250 ms, 11.8 % at 500 ms, and relay-sat's rate within
// 7.9 %, 13.8 % and 14.9 %.
const tick = 10 * time.Millisecond

// cpuTicks is how many ticks a piece of process CPU time spans. The
// kernel adds a thread's run time to the process clock when the thread
// is switched out or its CPU takes a timer tick (4 ms at HZ=250), so
// the server's share of a 10 ms piece is known to the nearest 4 ms;
// over 250 ms that is under 2 %.
const cpuTicks = 25

// mark is the state of a window at a piece boundary.
type mark struct {
	at      int64    // ns from the window's start
	cpu     cpuTimes // process and generator-thread CPU so far
	replies int      // valid replies so far
	nlat    int      // len(lat) so far
}

// piece is what happened between two marks.
type piece struct {
	seconds   float64
	replies   int
	serverCPU int64     // ns: process CPU minus the generator thread's
	lat       []float64 // the latency samples that arrived in it
}

// pieces cuts the window at every k-th mark.
func (w *timedWindow) pieces(k int) []piece {
	var out []piece
	for i := k; i < len(w.marks); i += k {
		a, b := w.marks[i-k], w.marks[i]
		srv, _ := serverCPU(a.cpu, b.cpu)
		out = append(out, piece{
			seconds:   float64(b.at-a.at) / 1e9,
			replies:   b.replies - a.replies,
			serverCPU: srv,
			lat:       w.lat[a.nlat:b.nlat],
		})
	}
	return out
}

// markEvery adds a mark when the window has entered a new tick;
// replies is the count of valid replies so far.
func (w *timedWindow) markEvery(now int64, replies int) {
	if len(w.marks) == cap(w.marks) {
		return
	}
	if n := len(w.marks); n == 0 || now/int64(tick) > w.marks[n-1].at/int64(tick) {
		w.marks = append(w.marks, mark{at: now, cpu: readCPU(), replies: replies, nlat: len(w.lat)})
	}
}

// generator owns the sockets and the per-window state.
type generator struct {
	socks  [genSockets]*genSock
	traced bool
	start  time.Time // origin of span timestamps
}

func newGenerator(addr string, traced bool) (*generator, error) {
	g := &generator{traced: traced, start: time.Now()}
	for i := range g.socks {
		s, err := dialGenSock(addr)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("generator socket %d: %w", i, err)
		}
		g.socks[i] = s
	}
	return g, nil
}

func (g *generator) close() {
	for _, s := range g.socks {
		if s != nil {
			s.close()
		}
	}
}

// loadIsolated records whether reserveLoadCPU reserved a CPU for the
// load thread.
var loadIsolated bool

// reserveLoadCPU is called by each workload that drives its load from
// a dedicated thread, before it starts anything; the function it
// returns gives the CPU back. The load thread must not share a CPU
// with what it measures: when the scheduler happens to put the shard
// on the generator's CPU, the shard's wake-up needs no cross-CPU
// interrupt and median latency halves — a coin-toss per run that says
// nothing about the relay.
func reserveLoadCPU() (release func()) {
	undo, ok := isolateLoadCPU()
	loadIsolated = ok
	return func() {
		undo()
		loadIsolated = false
	}
}

// onLoadThread runs fn on a goroutine locked to its own OS thread, on
// the reserved CPU if there is one, and waits for it: the load
// generator's CPU clock is that thread's. The goroutine ends still
// locked, which ends the thread and its affinity with it.
func onLoadThread(fn func()) {
	done := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		if loadIsolated {
			pinLoadThread()
		}
		defer close(done)
		fn()
	}()
	<-done
}

// openLoop sends one request at each due instant regardless of
// replies, and times each reply from its request's DUE instant, so a
// generator or server stall is charged to every request it delayed.
// gen is the step's cookie generation.
func (g *generator) openLoop(name string, due []int64, gen uint16) *timedWindow {
	n := len(due)
	w := &timedWindow{
		name:  name,
		lat:   make([]float64, 0, n),
		late:  make([]float64, 0, n),
		resid: make([]float64, 0, n),
		dwell: make([]float64, 0, n),
		marks: make([]mark, 0, int(due[n-1]/int64(tick))+3),
	}
	if g.traced {
		w.spans = make([]span, 0, 4*(n/traceEvery+1))
	}
	answered := make([]bool, n)
	// Send-syscall entry and return per request, ns from step start;
	// only a traced run reads them back.
	sent := make([][2]int64, n)
	onLoadThread(func() { g.runOpen(w, due, gen, answered, sent) })
	return w
}

func (g *generator) runOpen(w *timedWindow, due []int64, gen uint16, answered []bool, sent [][2]int64) {
	n := len(due)
	w.cpu[0] = readCPU()
	start := time.Now()
	spanBase := int64(start.Sub(g.start))
	end := due[n-1] + int64(replyDeadline)
	next, got := 0, 0
	for {
		now := int64(time.Since(start))
		if next < n {
			w.markEvery(now, len(w.lat))
		}
		// Send everything that is due, spread over the sockets.
		first := next
		for next < n && due[next] <= now {
			if now-due[next] > int64(lateLimit) {
				w.skipped++
				answered[next] = true // nothing to wait for
				next++
				continue
			}
			s := g.socks[next%genSockets]
			putRequest(&s.out[s.nout], makeCookie(gen, uint32(next)))
			s.nout++
			sent[next][0] = now
			w.late = append(w.late, float64(now-due[next])/1e3)
			next++
			if s.nout == genBatch {
				s.flush()
			}
		}
		for _, s := range g.socks {
			if s.nout > 0 {
				s.flush()
			}
		}
		if g.traced && next > first {
			t := int64(time.Since(start))
			for j := first; j < next; j++ {
				sent[j][1] = t
			}
		}
		for _, s := range g.socks {
			k := s.recv()
			if k == 0 {
				continue
			}
			rx := time.Now()
			rxNs := int64(rx.Sub(start))
			for i := 0; i < k; i++ {
				f := parseReply(s.in[i][:s.inLen[i]])
				cg, idx, ok := splitCookie(f.cookie)
				if !ok || cg != gen || int(idx) >= n || answered[idx] {
					w.stale++
					continue
				}
				answered[idx] = true
				got++
				lat := rxNs - due[idx]
				if !f.valid {
					w.invalid++
					continue
				}
				if lat > int64(replyDeadline) {
					continue // too late: failed, no latency sample
				}
				w.lat = append(w.lat, float64(lat)/1e3)
				w.resid = append(w.resid, float64(f.residence)/1e3)
				var dwell int64 = -1
				if krx := s.inStamp[i]; krx != 0 {
					if dwell = rx.UnixNano() - krx; dwell >= 0 {
						w.dwell = append(w.dwell, float64(dwell)/1e3)
					}
				}
				if g.traced && idx%traceEvery == 0 {
					w.spans = appendRequestSpans(w.spans, int64(idx), spanBase,
						due[idx], sent[idx][0], sent[idx][1], rxNs, f.residence, dwell)
				}
			}
		}
		if next == n && (got == n-w.skipped || now > end) {
			break
		}
	}
	w.elapsed = time.Since(start)
	w.cpu[1] = readCPU()
	w.attempted = n - w.skipped
	w.failed = w.attempted - len(w.lat)
	if len(w.marks) < cap(w.marks) { // close the last piece
		w.marks = append(w.marks, mark{at: int64(w.elapsed), cpu: w.cpu[1], replies: len(w.lat), nlat: len(w.lat)})
	}
}

// closedLoop keeps genSockets × win requests in flight for dur: every
// reply frees a slot that is refilled at once. A slot unanswered for
// replyDeadline is failed and resent under a new generation.
func (g *generator) closedLoop(name string, dur time.Duration, win int) *timedWindow {
	capN := (int(dur/tick) + 1) * satSamplesPerTick
	w := &timedWindow{
		name:  name,
		lat:   make([]float64, 0, capN),
		resid: make([]float64, 0, capN),
		dwell: make([]float64, 0, capN),
		marks: make([]mark, 0, int(dur/tick)+3),
	}
	if g.traced {
		w.spans = make([]span, 0, 4*(capN/traceEvery+1))
	}
	onLoadThread(func() { g.runClosed(w, dur, win) })
	return w
}

// The closed loop samples every satSampleEvery-th reply, and at most
// satSamplesPerTick of them per tick: enough for the tick's median,
// spread evenly over the window, and the same amount of sample memory
// whatever the rate turns out to be, so that peak RSS measures the
// relay and not how fast it happened to run.
const (
	satSampleEvery    = 8
	satSamplesPerTick = 128
)

// closedWait bounds one sleep of the closed loop, so that lost
// requests are still noticed and the window still ends on time.
const closedWait = 5 * time.Millisecond

type slot struct {
	sentAt  int64 // send-syscall entry, ns from window start
	sendEnd int64 // send-syscall return; traced runs only
	gen     uint16
	busy    bool
}

func (g *generator) runClosed(w *timedWindow, dur time.Duration, win int) {
	var slots [genSockets][genBatch]slot
	if win > genBatch {
		win = genBatch
	}
	w.cpu[0] = readCPU()
	start := time.Now()
	spanBase := int64(start.Sub(g.start))
	inFlight := 0
	replies, sampled := 0, 0 // valid replies so far; samples kept in this tick
	var seq int64            // reply counter, the span request id

	// handle consumes the k replies socket si just received.
	handle := func(si, k int) {
		s := g.socks[si]
		rx := time.Now()
		rxNs := int64(rx.Sub(start))
		for i := 0; i < k; i++ {
			f := parseReply(s.in[i][:s.inLen[i]])
			cg, idx, ok := splitCookie(f.cookie)
			if !ok || int(idx) >= win || !slots[si][idx].busy || slots[si][idx].gen != cg {
				w.stale++
				continue
			}
			sl := &slots[si][idx]
			sl.busy = false
			inFlight--
			seq++
			if !f.valid {
				w.invalid++
				w.failed++
				continue
			}
			replies++
			if seq%satSampleEvery != 0 || sampled == satSamplesPerTick || len(w.lat) == cap(w.lat) {
				continue
			}
			sampled++
			w.lat = append(w.lat, float64(rxNs-sl.sentAt)/1e3)
			w.resid = append(w.resid, float64(f.residence)/1e3)
			var dwell int64 = -1
			if krx := s.inStamp[i]; krx != 0 {
				if dwell = rx.UnixNano() - krx; dwell >= 0 {
					w.dwell = append(w.dwell, float64(dwell)/1e3)
				}
			}
			if g.traced && seq%traceEvery == 0 && len(w.spans)+4 <= cap(w.spans) {
				w.spans = appendRequestSpans(w.spans, seq, spanBase,
					sl.sentAt, sl.sentAt, sl.sendEnd, rxNs, f.residence, dwell)
			}
		}
	}

	for turn := 0; ; turn++ {
		now := int64(time.Since(start))
		running := now < int64(dur)
		if nm := len(w.marks); running {
			if w.markEvery(now, replies); len(w.marks) > nm {
				sampled = 0
			}
		}
		for si, s := range g.socks {
			for k := 0; k < win; k++ {
				sl := &slots[si][k]
				if sl.busy && now-sl.sentAt > int64(replyDeadline) {
					sl.busy = false // lost: counted failed, resent under a new generation
					inFlight--
					w.failed++
				}
				if !sl.busy && running {
					sl.gen++
					sl.sentAt, sl.busy = now, true
					putRequest(&s.out[s.nout], makeCookie(sl.gen, uint32(k)))
					s.nout++
					inFlight++
					w.attempted++
				}
			}
			if s.nout > 0 {
				s.flush()
				if g.traced {
					t := int64(time.Since(start))
					for k := 0; k < win; k++ {
						if sl := &slots[si][k]; sl.busy && sl.sentAt == now {
							sl.sendEnd = t
						}
					}
				}
			}
		}
		if !running && inFlight == 0 {
			break
		}
		// Sleep until one socket has replies, then drain both. A closed
		// loop has nothing to do until a reply frees a slot, and on a box
		// whose two CPUs are not both there all the time, a generator
		// that spins takes cycles from the shard it is measuring.
		first := turn % genSockets
		handle(first, g.socks[first].recvWait(closedWait))
		for si := range g.socks {
			if si != first {
				handle(si, g.socks[si].recv())
			}
		}
	}
	w.elapsed = time.Since(start)
	w.cpu[1] = readCPU()
	if len(w.marks) < cap(w.marks) { // close the last piece
		w.marks = append(w.marks, mark{at: int64(w.elapsed), cpu: w.cpu[1], replies: replies, nlat: len(w.lat)})
	}
}

// lateP99 is the generator's own noise figure: how far behind its
// schedule the 99th percentile send went out.
func lateP99(late []float64) float64 {
	if len(late) == 0 {
		return 0
	}
	xs := append([]float64(nil), late...)
	sort.Float64s(xs)
	return math.Max(0, percentileSorted(xs, 99))
}
