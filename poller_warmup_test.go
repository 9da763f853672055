package tscclock

import (
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ntp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timebase"
)

// warmupScore is one clock's |AbsoluteTime(Tf) − Tg| over one window of
// a trace: median and 99th percentile, in seconds.
type warmupScore struct{ median, p99 float64 }

func scoreWindow(errs []float64) warmupScore {
	s := stats.NewSorted(errs)
	return warmupScore{s.Median(), s.Percentile(99)}
}

// warmupRun is what TestPollerWarmupAccuracy measures on one trace for
// the burst (a real Poller choosing) and the reference (every 16 s):
// when each engine left warmup, and its scores in the three windows.
type warmupRun struct {
	burstEnd, refEnd float64 // trace time of the first post-warmup exchange (s)
	burst, ref       [3]warmupScore
}

// warmupWindows are the scoring windows [from, to) in trace seconds: the
// reference's warmup after the burst's, the first half hour after both,
// and the long run.
var warmupWindows = [3][2]float64{
	{128, 512},
	{512, 30 * timebase.Minute},
	{4 * timebase.Hour, 12 * timebase.Hour},
}

// runWarmupTrace replays one dense 4 s trace into two engines built from
// core.DefaultConfig(…, 16): the burst engine is fed the exchanges a
// Poller (Poll = MaxPoll = 16 s) picks, a lost pick reaching it as a
// timeout; the reference engine is fed every fourth exchange, the fixed
// 16 s cadence. Both clocks are read at every completed exchange of the
// trace's 16 s cadence, so they are scored at the same instants — the
// ones a 16 s client reads its clock at.
func runWarmupTrace(t *testing.T, srv sim.ServerSpec, seed uint64) warmupRun {
	t.Helper()
	const dense = 4 // s between trace exchanges
	tr, err := sim.Generate(sim.NewScenario(sim.MachineRoom, srv, dense, 12*timebase.Hour, seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(1/tr.Osc.Config().NominalHz, 16)
	burst, err := core.NewSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewSync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPoller(16*time.Second, 16*time.Second)
	run := warmupRun{burstEnd: -1, refEnd: -1}
	var burstErrs, refErrs [3][]float64
	next := 0 // index of the burst's next pick
	for i, e := range tr.Exchanges {
		at := float64(i * dense)
		in := core.Input{Ta: e.Ta, Tf: e.Tf, Tb: e.Tb, Te: e.Te}
		if i == next {
			var st Status
			var xerr error
			if e.Lost {
				xerr = os.ErrDeadlineExceeded
			} else {
				res, err := burst.Process(in)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Warmup && run.burstEnd < 0 {
					run.burstEnd = at
				}
				st = statusFromResult(res, false)
			}
			next += int(p.Observe(st, xerr) / (dense * time.Second))
		}
		if i%4 == 0 && !e.Lost {
			res, err := ref.Process(in)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Warmup && run.refEnd < 0 {
				run.refEnd = at
			}
		}
		if e.Lost || i%4 != 0 {
			continue
		}
		for w, win := range warmupWindows {
			if at >= win[0] && at < win[1] {
				burstErrs[w] = append(burstErrs[w], math.Abs(burst.Readout().AbsoluteTime(e.Tf)-e.Tg))
				refErrs[w] = append(refErrs[w], math.Abs(ref.Readout().AbsoluteTime(e.Tf)-e.Tg))
			}
		}
	}
	for w := range warmupWindows {
		run.burst[w] = scoreWindow(burstErrs[w])
		run.ref[w] = scoreWindow(refErrs[w])
	}
	return run
}

// TestPollerWarmupAccuracy scores the warmup burst against ground truth
// on the paper's three servers (machine room, seeds 1–3): warmup ends
// four times sooner; while the reference is still in warmup the burst's
// clock is already better; in the first half hour after both warmups
// its tail is lower but its median costs up to 16 % (the burst's first
// rate pair spans 128 s, not 512 s); from 4 h on the two clocks are the
// same to within 0.5 %. The bounds are the measured extremes over the
// nine traces; the run is deterministic.
func TestPollerWarmupAccuracy(t *testing.T) {
	const (
		midMedianCost = 1.16  // [512 s, 30 min): burst median ≤ this × reference (measured 1.158)
		longRunSpread = 0.005 // [4 h, 12 h): |burst/reference − 1| of median and p99 (measured 0.0043)
	)
	servers := []struct {
		name string
		spec sim.ServerSpec
	}{
		{"ServerInt", sim.ServerInt()},
		{"ServerLoc", sim.ServerLoc()},
		{"ServerExt", sim.ServerExt()},
	}
	for _, srv := range servers {
		for seed := uint64(1); seed <= 3; seed++ {
			r := runWarmupTrace(t, srv.spec, seed)
			name := fmt.Sprintf("%s seed %d", srv.name, seed)
			t.Logf("%s: median/p99 µs, burst vs reference: [128s,512s) %.1f/%.1f vs %.1f/%.1f  [512s,30m) %.1f/%.1f vs %.1f/%.1f  [4h,12h) %.2f/%.2f vs %.2f/%.2f",
				name, 1e6*r.burst[0].median, 1e6*r.burst[0].p99, 1e6*r.ref[0].median, 1e6*r.ref[0].p99,
				1e6*r.burst[1].median, 1e6*r.burst[1].p99, 1e6*r.ref[1].median, 1e6*r.ref[1].p99,
				1e6*r.burst[2].median, 1e6*r.burst[2].p99, 1e6*r.ref[2].median, 1e6*r.ref[2].p99)
			if r.burstEnd != 128 || r.refEnd != 512 {
				t.Errorf("%s: warmup ends at %v s (burst) and %v s (reference), want 128 and 512", name, r.burstEnd, r.refEnd)
			}
			if b, f := r.burst[0], r.ref[0]; b.median >= f.median {
				t.Errorf("%s: [128s,512s) burst median %.3g ≥ reference %.3g", name, b.median, f.median)
			}
			if b, f := r.burst[1], r.ref[1]; b.p99 >= f.p99 || b.median > midMedianCost*f.median {
				t.Errorf("%s: [512s,30m) burst median/p99 %.3g/%.3g against reference %.3g/%.3g: want p99 lower, median ≤ %v×",
					name, b.median, b.p99, f.median, f.p99, midMedianCost)
			}
			b, f := r.burst[2], r.ref[2]
			if math.Abs(b.median/f.median-1) > longRunSpread || math.Abs(b.p99/f.p99-1) > longRunSpread {
				t.Errorf("%s: [4h,12h) burst median/p99 %.4g/%.4g against reference %.4g/%.4g: want within %v",
					name, b.median, b.p99, f.median, f.p99, longRunSpread)
			}
		}
	}
}

// TestRunWarmupSchedule runs the live schedule against one loopback
// upstream at a fixed cadence (MaxPoll == Poll): warmup at Poll/4 makes
// the client Ready after 33 exchanges in about 8 polls, and afterwards
// the upstream sees one request per poll.
func TestRunWarmupSchedule(t *testing.T) {
	const poll = 40 * time.Millisecond
	addr, srv := startCountingServer(t)
	l, err := DialMultiLive(MultiLiveOptions{Servers: []string{addr.String()},
		Poll: poll, MaxPoll: poll, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.Run(ctx, nil) }()
	defer func() {
		cancel()
		<-done
	}()

	start := time.Now()
	for !l.Ready() {
		if time.Since(start) > 16*poll {
			t.Fatalf("not Ready after %v (16 polls); upstream answered %d", time.Since(start), srv.Stats().Replied)
		}
		time.Sleep(time.Millisecond)
	}
	ready := srv.Stats().Replied
	t.Logf("Ready after %v, %d replies", time.Since(start), ready)
	if ready < 33 || ready > 34 {
		t.Errorf("upstream answered %d requests by Ready, want 33 or 34", ready)
	}
	time.Sleep(10 * poll)
	if after := srv.Stats().Replied - ready; after > 11 {
		t.Errorf("upstream answered %d requests in the 10 polls after Ready, want at most 11", after)
	}
}

// TestNextPollDue holds the pacing rule: the next poll is due one wait
// after the previous one was due, however late the timer woke or the
// exchange returned, unless it returned after that time; then it is due
// at once, and only once — missed polls are not caught up.
func TestNextPollDue(t *testing.T) {
	const wait = 20 * time.Millisecond
	ms := time.Millisecond
	// Each step is one exchange: when it returned and when the next poll
	// is then due, both as offsets from the first poll's due time.
	type step struct{ returned, want time.Duration }
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"on time", []step{{1 * ms, 20 * ms}, {21 * ms, 40 * ms}, {41 * ms, 60 * ms}}},
		{"woke 3 ms late", []step{{4 * ms, 20 * ms}, {24 * ms, 40 * ms}}},
		{"exchange overran the next due time", []step{{25 * ms, 25 * ms}, {26 * ms, 45 * ms}, {46 * ms, 65 * ms}}},
		{"returned exactly at the next due time", []step{{20 * ms, 20 * ms}, {21 * ms, 40 * ms}}},
		{"ten intervals of outage", []step{{200 * ms, 200 * ms}, {201 * ms, 220 * ms}, {221 * ms, 240 * ms}}},
	} {
		t0 := time.Now()
		due := t0
		for i, s := range tc.steps {
			due = nextDue(due, wait, t0.Add(s.returned))
			if got := due.Sub(t0); got != s.want {
				t.Errorf("%s: step %d returned at +%v: next due at +%v, want +%v", tc.name, i, s.returned, got, s.want)
			}
		}
	}
}

// TestRunPacesOnDeadlines runs the live schedule against one loopback
// upstream that takes 10 ms to answer. At Poll = 80 ms the warmup polls
// are due every 20 ms, so the first 33 requests span 32·20 ms = 640 ms;
// timing each poll from when the previous exchange returned would add
// the 10 ms to every gap, at least 32·30 ms = 960 ms.
func TestRunPacesOnDeadlines(t *testing.T) {
	const (
		poll     = 80 * time.Millisecond
		delay    = 10 * time.Millisecond
		requests = 33
		maxSpan  = 800 * time.Millisecond
	)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	arrivals := make(chan time.Time, requests)
	srv, err := ntp.NewServer(ntp.ServerConfig{Sample: func() ntp.ClockSample {
		select {
		case arrivals <- time.Now():
		default:
		}
		time.Sleep(delay)
		return ntp.ClockSample{Time: ntp.Time64FromTime(time.Now()), Stratum: 1, Precision: -20, RefID: ntp.RefIDFromString("GPS")}
	}})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(pc)
	t.Cleanup(func() { pc.Close() })

	l, err := DialMultiLive(MultiLiveOptions{Servers: []string{pc.LocalAddr().String()},
		Poll: poll, MaxPoll: poll, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.Run(ctx, nil) }()
	defer func() {
		cancel()
		<-done
	}()

	var first, last time.Time
	for i := 0; i < requests; i++ {
		select {
		case last = <-arrivals:
		case <-time.After(2 * time.Second):
			t.Fatalf("%d requests arrived, want %d", i, requests)
		}
		if i == 0 {
			first = last
		}
	}
	span := last.Sub(first)
	t.Logf("%d requests spanned %v (due every %v, each answered after %v)", requests, span, poll/warmupDivisor, delay)
	if span >= maxSpan {
		t.Errorf("%d requests spanned %v, want under %v: exchange latency stretches the schedule", requests, span, maxSpan)
	}
}
