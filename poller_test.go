package tscclock

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/ntp"
)

// timeoutErr is a net.Error whose Timeout() is true: what a lost UDP
// exchange surfaces through the read deadline.
type timeoutErr struct{ msg string }

func (e *timeoutErr) Error() string   { return e.msg }
func (e *timeoutErr) Timeout() bool   { return true }
func (e *timeoutErr) Temporary() bool { return true }

func errTimeout(msg string) error { return &timeoutErr{msg: msg} }

func TestPollerDefaults(t *testing.T) {
	p := NewPoller(0, 0)
	if p.Interval() != 16*time.Second {
		t.Errorf("default min = %v", p.Interval())
	}
	p2 := NewPoller(time.Minute, time.Second) // max < min
	if p2.Observe(Status{}, nil) < time.Minute {
		t.Error("max not clamped to min")
	}
}

func TestPollerBackoff(t *testing.T) {
	p := NewPoller(16*time.Second, 256*time.Second)
	quiet := Status{Warmup: false}
	intervals := []time.Duration{}
	for i := 0; i < 8; i++ {
		intervals = append(intervals, p.Observe(quiet, nil))
	}
	want := []time.Duration{32, 64, 128, 256, 256, 256, 256, 256}
	for i, w := range want {
		if intervals[i] != w*time.Second {
			t.Errorf("step %d: interval %v, want %vs", i, intervals[i], w)
		}
	}
}

// TestPollerFastDuringWarmup: a warmup exchange is followed by exactly
// min/warmupDivisor, while the recommendation stays at min, so the first
// exchange after warmup resumes the doubling from min.
func TestPollerFastDuringWarmup(t *testing.T) {
	p := NewPoller(16*time.Second, 256*time.Second)
	for i := 0; i < 3; i++ {
		if got := p.Observe(Status{Warmup: true}, nil); got != 4*time.Second {
			t.Errorf("warmup exchange %d: interval %v, want 4s", i, got)
		}
		if p.Interval() != 16*time.Second {
			t.Errorf("warmup exchange %d: Interval() = %v, want min", i, p.Interval())
		}
	}
	if got := p.Observe(Status{}, nil); got != 32*time.Second {
		t.Errorf("first exchange after warmup: interval %v, want 32s", got)
	}
}

func TestPollerResetsOnTrouble(t *testing.T) {
	p := NewPoller(16*time.Second, 1024*time.Second)
	for i := 0; i < 6; i++ {
		p.Observe(Status{}, nil)
	}
	if p.Interval() <= 16*time.Second {
		t.Fatal("backoff did not progress")
	}
	for _, st := range []Status{
		{UpwardShiftDetected: true},
		{OffsetSanity: true},
		{PoorQuality: true},
	} {
		p2 := *p
		if got := p2.Observe(st, nil); got != 16*time.Second {
			t.Errorf("trouble %+v: interval %v, want min", st, got)
		}
	}
	if got := p.Observe(Status{}, errTimeout("timeout")); got != 16*time.Second {
		t.Errorf("exchange error: interval %v, want min", got)
	}
}

// TestPollerDeadServer: persistent exchange errors must not pin the
// poller at the fast floor forever. The first failFastRetries failures
// retry at min (a lone loss is worth chasing); after that the interval
// doubles toward max and stays there while the server remains dead.
func TestPollerDeadServer(t *testing.T) {
	p := NewPoller(16*time.Second, 256*time.Second)
	dead := errTimeout("i/o timeout")
	want := []time.Duration{16, 16, 32, 64, 128, 256, 256, 256}
	for i, w := range want {
		if got := p.Observe(Status{}, dead); got != w*time.Second {
			t.Errorf("failure %d: interval %v, want %vs", i+1, got, w)
		}
	}
	// Decommissioned server: the steady state is max, not min.
	for i := 0; i < 20; i++ {
		if got := p.Observe(Status{}, dead); got != 256*time.Second {
			t.Fatalf("persistent failure %d: interval %v, want max", i, got)
		}
	}
	// The server comes back: one success resets the failure budget and
	// polling resumes the quiet-good climb from max.
	if got := p.Observe(Status{}, nil); got != 256*time.Second {
		t.Errorf("recovery: interval %v, want max (already there)", got)
	}
	// The next lone error is treated as fresh packet loss again.
	if got := p.Observe(Status{}, dead); got != 16*time.Second {
		t.Errorf("first error after recovery: interval %v, want min", got)
	}
}

// TestPollerFlappyServer: isolated losses interleaved with successes
// never trip the failure backoff — every error retries at min, every
// success resumes the climb, and the consecutive-failure count resets
// so flapping cannot accumulate into a spurious back-off.
func TestPollerFlappyServer(t *testing.T) {
	p := NewPoller(16*time.Second, 1024*time.Second)
	flap := errTimeout("lost")
	steps := []struct {
		err  error
		want time.Duration
	}{
		{flap, 16 * time.Second}, // 1st consecutive failure: fast retry
		{nil, 32 * time.Second},  // success: climb resumes, count resets
		{flap, 16 * time.Second}, // 1st again, not 2nd
		{flap, 16 * time.Second}, // 2nd consecutive: still fast
		{nil, 32 * time.Second},  // reset
		{flap, 16 * time.Second}, // 1st
		{flap, 16 * time.Second}, // 2nd
		{flap, 32 * time.Second}, // 3rd consecutive: backoff begins
		{flap, 64 * time.Second}, // and compounds
		{nil, 128 * time.Second}, // success: quiet climb from where it was
		{flap, 16 * time.Second}, // counter was reset: fast retry again
	}
	for i, s := range steps {
		if got := p.Observe(Status{}, s.err); got != s.want {
			t.Errorf("step %d (err=%v): interval %v, want %v", i, s.err != nil, got, s.want)
		}
	}
}

// TestPollerTimeoutVsHardError pins the error-kind asymmetry against a
// scripted fault sequence: timeouts (packet loss) get failFastRetries
// polls at min before the exponential climb to max, while hard errors
// (resolution failure, refused, unreachable — anything that is not a
// timeout) burn the fast-retry budget immediately, because no retry
// rate recovers a structural failure.
func TestPollerTimeoutVsHardError(t *testing.T) {
	lost := errTimeout("read udp: i/o timeout")
	hard := errors.New("dial udp: no such host")

	p := NewPoller(16*time.Second, 256*time.Second)
	script := []struct {
		err  error
		want time.Duration
	}{
		{lost, 16 * time.Second},  // 1st timeout: fast retry
		{lost, 16 * time.Second},  // 2nd timeout: still fast
		{lost, 32 * time.Second},  // 3rd: backoff begins
		{lost, 64 * time.Second},  // and compounds
		{lost, 128 * time.Second}, //
		{lost, 256 * time.Second}, // pinned at max while dead
		{nil, 256 * time.Second},  // recovery: failure budget resets
		{hard, 256 * time.Second}, // hard error: no fast retry, stays backed off at max
	}
	for i, s := range script {
		if got := p.Observe(Status{}, s.err); got != s.want {
			t.Errorf("step %d: interval %v, want %v", i, got, s.want)
		}
	}

	// From a calm climb, a hard error doubles instead of dropping to
	// min — and keeps doubling, since every further failure is past the
	// fast-retry budget.
	p2 := NewPoller(16*time.Second, 256*time.Second)
	p2.Observe(Status{}, nil) // 32s
	want := []time.Duration{64 * time.Second, 128 * time.Second, 256 * time.Second}
	for i, w := range want {
		if got := p2.Observe(Status{}, hard); got != w {
			t.Errorf("hard failure %d: interval %v, want %v", i+1, got, w)
		}
	}
	// A wrapped deadline error still counts as a timeout.
	p3 := NewPoller(16*time.Second, 256*time.Second)
	p3.Observe(Status{}, nil) // 32s
	wrapped := fmt.Errorf("exchange: %w", os.ErrDeadlineExceeded)
	if got := p3.Observe(Status{}, wrapped); got != 16*time.Second {
		t.Errorf("wrapped deadline error: interval %v, want min fast retry", got)
	}
}

// TestPollerObserveTransitions walks Observe through every policy arc
// in one continuous run: the warmup burst (and a kiss winning over it),
// quiet-good doubling, the max clamp, a trouble reset, and the recovery
// climb afterwards.
func TestPollerObserveTransitions(t *testing.T) {
	p := NewPoller(16*time.Second, 128*time.Second)
	steps := []struct {
		name string
		st   Status
		err  error
		want time.Duration
	}{
		{"warmup polls at min/4", Status{Warmup: true}, nil, 4 * time.Second},
		{"warmup again", Status{Warmup: true}, nil, 4 * time.Second},
		{"RATE kiss in warmup goes to max", Status{Warmup: true}, &ntp.KissError{Code: "RATE"}, 128 * time.Second},
		{"warmup resumes at min/4", Status{Warmup: true}, nil, 4 * time.Second},
		{"first quiet doubles", Status{}, nil, 32 * time.Second},
		{"second quiet doubles", Status{}, nil, 64 * time.Second},
		{"third quiet doubles", Status{}, nil, 128 * time.Second},
		{"clamped at max", Status{}, nil, 128 * time.Second},
		{"shift resets to min", Status{UpwardShiftDetected: true}, nil, 16 * time.Second},
		{"recovery climbs again", Status{}, nil, 32 * time.Second},
		{"server change resets to min", Status{ServerChanged: true}, nil, 16 * time.Second},
		{"climbs after server change", Status{}, nil, 32 * time.Second},
		{"exchange error resets", Status{}, errTimeout("timeout"), 16 * time.Second},
		{"poor quality pins min", Status{PoorQuality: true}, nil, 16 * time.Second},
		{"sanity pins min", Status{OffsetSanity: true}, nil, 16 * time.Second},
		{"quiet resumes from min", Status{}, nil, 32 * time.Second},
	}
	for _, s := range steps {
		if got := p.Observe(s.st, s.err); got != s.want {
			t.Errorf("%s: interval %v, want %v", s.name, got, s.want)
		}
		if p.Interval() != p.current {
			t.Errorf("%s: Interval() disagrees with state", s.name)
		}
	}
}

// TestPollerMinClamp: outside warmup the interval can never leave
// [min, max], whatever sequence of outcomes is observed — including an
// error on the very first observation and degenerate min == max bounds;
// a warmup exchange gets exactly min/4.
func TestPollerMinClamp(t *testing.T) {
	p := NewPoller(20*time.Second, 40*time.Second)
	if got := p.Observe(Status{}, errTimeout("first poll lost")); got != 20*time.Second {
		t.Errorf("error on first observation: %v, want min", got)
	}
	outcomes := []struct {
		st  Status
		err error
	}{
		{Status{}, nil},
		{Status{Warmup: true}, nil},
		{Status{}, nil},
		{Status{}, nil},
		{Status{PoorQuality: true}, nil},
		{Status{}, errTimeout("x")},
		{Status{}, nil},
	}
	for i, o := range outcomes {
		got := p.Observe(o.st, o.err)
		switch {
		case o.st.Warmup && got != 5*time.Second:
			t.Errorf("step %d: warmup interval %v, want 5s", i, got)
		case !o.st.Warmup && (got < 20*time.Second || got > 40*time.Second):
			t.Errorf("step %d: interval %v outside [20s, 40s]", i, got)
		}
	}

	fixed := NewPoller(time.Minute, time.Minute)
	if got := fixed.Observe(Status{Warmup: true}, nil); got != 15*time.Second {
		t.Errorf("min==max warmup: interval %v, want 15s", got)
	}
	for i := 0; i < 3; i++ {
		if got := fixed.Observe(Status{}, nil); got != time.Minute {
			t.Errorf("min==max step %d: interval %v, want 1m", i, got)
		}
	}
}

func TestRunAdaptiveAgainstServer(t *testing.T) {
	addr := startServer(t)
	// Poll and MaxPoll are the adaptive poller's bounds.
	l, err := DialMultiLive(MultiLiveOptions{Servers: []string{addr.String()},
		Poll: 10 * time.Millisecond, MaxPoll: 80 * time.Millisecond, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	steps := 0
	err = l.Run(ctx, func(_ int, st EnsembleStatus, err error) {
		if err == nil {
			steps++
		}
	})
	if err != context.DeadlineExceeded {
		t.Errorf("Run returned %v", err)
	}
	if steps < 3 {
		t.Errorf("only %d steps", steps)
	}
}

func TestServerChangedSurfaced(t *testing.T) {
	c, err := New(Options{NominalPeriod: 2e-9, PollPeriod: 16})
	if err != nil {
		t.Fatal(err)
	}
	const p = 2e-9
	counter := uint64(1000)
	serverT := 0.0
	feed := func(refid uint32) Status {
		counter += uint64(16 / p)
		serverT += 16
		rtt := 400e-6
		st, err := c.ProcessNTPExchangeFrom(counter, counter+uint64(rtt/p),
			serverT+rtt/3, serverT+rtt/3+20e-6, refid, 1)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for i := 0; i < 5; i++ {
		if st := feed(100); st.ServerChanged {
			t.Fatal("spurious server change")
		}
	}
	if st := feed(200); !st.ServerChanged {
		t.Error("server change not surfaced")
	}
	if st := feed(200); st.ServerChanged {
		t.Error("steady new server still reported as change")
	}
}
