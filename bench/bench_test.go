package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},   // 9.9 samples beyond p90: not enough for any tail
		{100, 90, true},  // exactly ten beyond p90
		{999, 90, true},  // 9.99 beyond p99
		{1000, 99, true}, // exactly ten beyond p99
		{10000, 99.9, true},
		{100000, 99.99, true},
		{5000000, 99.99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(999 - i)
	}
	s := summarize(xs)
	if s.Median != 499.5 || s.TailP != 99 || math.Abs(s.Tail-989.01) > 1e-9 || s.N != 1000 {
		t.Errorf("summarize(0..999) = %+v", s)
	}
}

// The quartile rule must be the driver's: Python's
// statistics.quantiles(xs, n=4), exclusive method.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
		{[]float64{3, 9}, [3]float64{1.5, 6, 10.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestPoissonScheduleSameSeedSameBits(t *testing.T) {
	a := poissonSchedule(7, 40000, 500*time.Millisecond)
	b := poissonSchedule(7, 40000, 500*time.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := poissonSchedule(8, 40000, 500*time.Millisecond); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	if n := float64(len(a)); math.Abs(n-20000) > 5*math.Sqrt(20000) {
		t.Errorf("%v arrivals in 0.5 s at 40000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not ascending at %d", i)
		}
	}
	if last := a[len(a)-1]; last >= int64(500*time.Millisecond) {
		t.Errorf("arrival at %d ns, past the end of the step", last)
	}
}

func TestTraceSameSeedSameBits(t *testing.T) {
	a, err := generateTrace(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateTrace(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.ex, b.ex) || a.emitted != b.emitted {
		t.Fatal("the same seed gave two traces")
	}
	c, err := generateTrace(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.ex, c.ex) {
		t.Fatal("two seeds gave the same trace")
	}
	if lost := float64(a.emitted-len(a.ex)) / float64(a.emitted); lost < 0.005 || lost > 0.08 {
		t.Errorf("%.3f of the exchanges lost; the scenario asks for 2 %% plus a short outage", lost)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "req", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 20..30 counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 1, Name: "d", Start: -5, End: 5},   // clipped to the parent's start
		{ID: 6, Parent: 3, Name: "e", Start: 25, End: 35},  // a grandchild: b's business, not req's
	}
	self := selfTimes(spans)
	want := map[string]int64{"req": 100 - (5 + 40 + 10), "a": 20, "b": 30 - 10, "c": 30, "d": 10, "e": 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestRequestSpansNest(t *testing.T) {
	// due 1000, sent 1100..1300, reply read at 9000 after 400 ns in the
	// generator's queue, server residence 2000.
	spans := appendRequestSpans(nil, 7, 50, 1000, 1100, 1300, 9000, 2000, 400)
	if len(spans) != 4 {
		t.Fatalf("%d spans", len(spans))
	}
	self := selfTimes(spans)
	// req lasts 8000; children cover 200 (send) + 2000 (residence) + 400 (dwell).
	if self["req"] != 8000-2600 || self["ntp.residence"] != 2000 || self["gen.rx_dwell"] != 400 {
		t.Errorf("self times %v", self)
	}
	for _, s := range spans[1:] {
		if s.Parent != spans[0].ID || s.Req != 7 {
			t.Errorf("span %+v is not a child of the request's root", s)
		}
	}
	if res := spans[2]; res.End != 50+9000-400 {
		t.Errorf("residence ends at %d, want at the kernel's arrival stamp", res.End)
	}
	if got := appendRequestSpans(nil, 7, 0, 0, 0, 1, 10, 2, -1); len(got) != 3 {
		t.Errorf("%d spans without a kernel stamp, want 3", len(got))
	}
}

func TestCookieRoundTripAndReplyValidation(t *testing.T) {
	c := makeCookie(0xbeef, 0xdeadbeef)
	if g, i, ok := splitCookie(c); !ok || g != 0xbeef || i != 0xdeadbeef {
		t.Errorf("splitCookie(%#x) = %#x, %#x, %v", c, g, i, ok)
	}
	if _, _, ok := splitCookie(0x1234 << 48); ok {
		t.Error("foreign tag accepted")
	}
	reply := func(mut func(b []byte)) replyFields {
		b := make([]byte, pktSize)
		b[0] = 4<<3 | 4 // LI 0, VN 4, mode 4
		b[1] = 2
		binary.BigEndian.PutUint64(b[24:], c)
		binary.BigEndian.PutUint64(b[32:], 1000<<32)
		binary.BigEndian.PutUint64(b[40:], 1000<<32+1<<31) // half a second later
		mut(b)
		return parseReply(b)
	}
	if f := reply(func([]byte) {}); !f.valid || f.cookie != c || f.residence != 5e8 {
		t.Errorf("good reply parsed as %+v", f)
	}
	for name, mut := range map[string]func([]byte){
		"client mode":        func(b []byte) { b[0] = 4<<3 | 3 },
		"leap unsynced":      func(b []byte) { b[0] |= 3 << 6 },
		"stratum 1":          func(b []byte) { b[1] = 1 },
		"transmit < receive": func(b []byte) { binary.BigEndian.PutUint64(b[40:], 999<<32) },
	} {
		if f := reply(mut); f.valid {
			t.Errorf("%s: accepted", name)
		}
	}
	if f := parseReply(make([]byte, 47)); f.valid {
		t.Error("short reply accepted")
	}
}

// fakeServer answers every request twice: first under the previous
// generation, then properly — the stale copy must never be matched.
func fakeServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 512)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			if n < pktSize {
				continue
			}
			c := binary.BigEndian.Uint64(buf[40:48])
			gen, idx, _ := splitCookie(c)
			out := make([]byte, pktSize)
			out[0], out[1] = 4<<3|4, 2
			binary.BigEndian.PutUint64(out[32:], 5<<32)
			binary.BigEndian.PutUint64(out[40:], 5<<32+1000)
			for _, g := range []uint16{gen - 1, gen} {
				binary.BigEndian.PutUint64(out[24:], makeCookie(g, idx))
				if _, err := pc.WriteTo(out, from); err != nil {
					return
				}
			}
		}
	}()
	return pc.LocalAddr().String(), func() { pc.Close(); <-done }
}

func TestLoopsIgnoreStaleGenerations(t *testing.T) {
	addr, stop := fakeServer(t)
	defer stop()
	g, err := newGenerator(addr, false)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()

	due := poissonSchedule(1, 2000, 200*time.Millisecond)
	w := g.openLoop("open", due, 5)
	if w.attempted != len(due) || w.failed != 0 || w.invalid != 0 || len(w.lat) != len(due) {
		t.Errorf("open loop: attempted %d of %d, failed %d, invalid %d, %d samples", w.attempted, len(due), w.failed, w.invalid, len(w.lat))
	}
	if w.stale != len(due) {
		t.Errorf("open loop: %d stale replies set aside, want one per request (%d)", w.stale, len(due))
	}

	w = g.closedLoop("closed", 200*time.Millisecond, 4)
	if w.attempted == 0 || w.failed != 0 || w.invalid != 0 {
		t.Errorf("closed loop: attempted %d, failed %d, invalid %d", w.attempted, w.failed, w.invalid)
	}
	// Every request draws one stale copy; the last few may still be in
	// flight when the loop ends.
	if w.stale < w.attempted-2*genSockets*4 || w.stale > w.attempted {
		t.Errorf("closed loop: %d stale replies for %d requests", w.stale, w.attempted)
	}
	for _, s := range g.socks {
		if s.err != nil {
			t.Errorf("socket error: %v", s.err)
		}
	}
}

func TestServerCPUSplit(t *testing.T) {
	before := cpuTimes{process: 1000, thread: 400}
	after := cpuTimes{process: 9000, thread: 3400}
	if srv, gen := serverCPU(before, after); srv != 5000 || gen != 3000 {
		t.Errorf("serverCPU = %d, %d; want 5000, 3000", srv, gen)
	}
	if runtime.GOOS != "linux" {
		return
	}
	// On Linux the thread clock is real: a thread that burns CPU sees
	// it on its own clock, and never more than the process saw.
	var a, b cpuTimes
	onLoadThread(func() {
		a = readCPU()
		for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
		}
		b = readCPU()
	})
	thread, process := b.thread-a.thread, b.process-a.process
	if thread < int64(20*time.Millisecond) || thread > process+int64(5*time.Millisecond) {
		t.Errorf("thread burned %d ns, process %d ns", thread, process)
	}
}

func TestConvergeAt(t *testing.T) {
	// One sample a minute; errors out of bound until minute 10, one
	// relapse at minute 30, clean from minute 31 on.
	var ts, errs []float64
	for m := 0; m < 200; m++ {
		ts = append(ts, float64(m)*60)
		e := 1e-6
		if m < 10 || m == 30 {
			e = 1e-3
		}
		errs = append(errs, e)
	}
	if at, i := convergeAt(ts, errs, 100e-6, 3600); at != 31*60 || i != 31 {
		t.Errorf("converged at %v (index %d), want 1860 (31): minute 10..29 is not an hour", at, i)
	}
	if at, _ := convergeAt(ts[:40], errs[:40], 100e-6, 3600); !math.IsNaN(at) {
		t.Errorf("converged at %v with under an hour of clean trace left", at)
	}
}

func TestBestDecileOfPieces(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 0}
	if got := best(append([]float64(nil), xs...), true); got != 1 {
		t.Errorf("best(lower) = %v, want the 10th percentile 1", got)
	}
	if got := best(append([]float64(nil), xs...), false); got != 9 {
		t.Errorf("best(higher) = %v, want the 90th percentile 9", got)
	}

	// Three ticks: a normal one, one the box stole (nothing answered),
	// a fast one. The stolen tick carries no figure.
	w := &timedWindow{
		lat: []float64{30, 10, 20, 4, 6},
		marks: []mark{
			{at: 0},
			{at: 10e6, cpu: cpuTimes{process: 900e3, thread: 600e3}, replies: 300, nlat: 3},
			{at: 20e6, cpu: cpuTimes{process: 1900e3, thread: 1500e3}, replies: 300, nlat: 3},
			{at: 30e6, cpu: cpuTimes{process: 2500e3, thread: 2000e3}, replies: 500, nlat: 5},
		},
	}
	if got := pieceP50s(w); !reflect.DeepEqual(got, []float64{20, 5}) {
		t.Errorf("pieceP50s = %v", got)
	}
	if got := pieceRates(w, 1); !reflect.DeepEqual(got, []float64{30000, 20000}) {
		t.Errorf("pieceRates = %v", got)
	}
	// Pieces of three ticks: one, from the first mark to the last.
	if got := pieceRates(w, 3); len(got) != 1 || math.Abs(got[0]-500/0.03) > 1e-6 {
		t.Errorf("pieceRates over three ticks = %v", got)
	}
	// Server CPU is process minus generator thread: 300 µs over 300
	// replies, then 100 µs over 200.
	var cpus []float64
	for _, p := range w.pieces(1) {
		if p.replies > 0 {
			cpus = append(cpus, float64(p.serverCPU)/1e3/float64(p.replies))
		}
	}
	if !reflect.DeepEqual(cpus, []float64{1, 0.5}) {
		t.Errorf("server CPU per reply by tick = %v", cpus)
	}
	if got := pieceCPUs(w); len(got) != 0 {
		t.Errorf("pieceCPUs = %v from a window shorter than one CPU piece", got)
	}

	// markEvery marks once per tick entered, never twice within one.
	m := &timedWindow{marks: make([]mark, 0, 8)}
	for _, now := range []int64{0, 4e6, 9.9e6, 10e6, 11e6, 36e6, 40e6} {
		m.markEvery(now, 0)
	}
	var at []int64
	for _, k := range m.marks {
		at = append(at, k.at)
	}
	if !reflect.DeepEqual(at, []int64{0, 10e6, 36e6, 40e6}) {
		t.Errorf("marks at %v", at)
	}
}

func TestSegmentFloors(t *testing.T) {
	// Eleven passes over three segments. Segment 0 is stalled in pass 3,
	// segment 1 in pass 7, segment 2 costs more on its own: the floor
	// pass carries neither stall, and keeps what segment 2 costs.
	passes := make([][]float64, 11)
	for p := range passes {
		passes[p] = []float64{100 + float64(p), 200 + float64(p), 900 + float64(p)}
	}
	passes[3][0], passes[7][1] = 5000, 9000
	got := segmentFloors(passes)
	if want := []float64{101, 201, 901}; !reflect.DeepEqual(got, want) {
		t.Errorf("segmentFloors = %v, want the 10th percentile of each column %v", got, want)
	}
	if segmentFloors(nil) != nil {
		t.Error("floors from no passes")
	}
}

// synthetic builds a result file with the given gate values of one
// metric on one workload, one run per value.
func synthetic(workload, metric string, noisy bool, vals ...float64) *resultFile {
	rf := &resultFile{Machine: describeMachine()}
	for i, v := range vals {
		r := runResult{Workload: workload, Seed: uint64(i + 1), Correct: true, Attempted: 1000, Noisy: noisy}
		r.Gate = []reported{{Name: metric, Value: v}}
		r.Own = []reported{{Name: "fail_frac", Value: 0.0001 * v}, {Name: "offset_err_median_us", Value: 20 + float64(i)}}
		rf.Runs = append(rf.Runs, r)
	}
	return rf
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 75, 125, 90, 110, 100, 65, 135}
	for _, c := range []struct {
		name     string
		old, new []float64
		lower    bool
		want     string
	}{
		{"same", steady, steady, true, vOK},
		{"10 % worse within a 25 % bound", steady, scale(steady, 1.10), true, vOK},
		{"40 % worse", steady, scale(steady, 1.40), true, vRegression},
		{"40 % better, every run", steady, scale(steady, 0.60), true, vImproved},
		{"higher is better and it fell 40 %", steady, scale(steady, 0.60), false, vRegression},
		{"spread wider than the bound", noisy, scale(noisy, 1.3), true, vUnresolved},
		{"spread wider than the bound, yet every run better", noisy, scale(noisy, 0.3), true, vImproved},
		{"nothing to compare", steady, nil, true, vMissing},
	} {
		got, _, _, _ := judge(c.old, c.new, sameBySeed(c.old, c.new, seeds(len(c.old)), seeds(len(c.new))), c.lower, 0.25, false)
		if got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// fail_frac is held to an absolute rise.
	five := func(v float64) []float64 { return []float64{v, v, v, v, v} }
	if got, _, _, _ := judge(five(0), five(0.001), false, true, failFracSlack, true); got != vOK {
		t.Errorf("fail_frac +0.001: %s", got)
	}
	if got, _, _, _ := judge(five(0), five(0.01), false, true, failFracSlack, true); got != vRegression {
		t.Errorf("fail_frac +0.01: %s", got)
	}
	// Too few runs to know the spread: only identical readings pass.
	if got, _, _, _ := judge([]float64{100}, []float64{150}, false, true, 0.25, false); got != vUnresolved {
		t.Errorf("one run a side, 50 %% apart: %s", got)
	}
	if got, _, _, _ := judge([]float64{28.9}, []float64{28.9}, true, true, 0.01, false); got != vOK {
		t.Errorf("one run a side, identical: %s", got)
	}
	// Identity is judged seed by seed: the same values under other seeds
	// are not the same runs.
	a, b := []float64{1, 2, 3}, []float64{3, 2, 1}
	if !sameBySeed(a, a, seeds(3), seeds(3)) || sameBySeed(a, b, seeds(3), seeds(3)) ||
		!sameBySeed(a, b, seeds(3), []uint64{3, 2, 1}) || sameBySeed(a, a[:2], seeds(3), seeds(2)) || sameBySeed(nil, nil, nil, nil) {
		t.Error("sameBySeed")
	}
}

func seeds(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	write := func(name string, rf *resultFile) string {
		p := filepath.Join(dir, name)
		if err := writeResultFile(p, rf); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("old.json", synthetic("relay-sat", "op_p50_us", false, steady...))
	same := write("same.json", synthetic("relay-sat", "op_p50_us", false, steady...))
	var worse []float64
	for _, v := range steady {
		worse = append(worse, v*1.5)
	}
	bad := write("bad.json", synthetic("relay-sat", "op_p50_us", false, worse...))
	allNoisy := write("noisy.json", synthetic("relay-sat", "op_p50_us", true, worse...))

	var out bytes.Buffer
	if rc := compareFiles(&out, base, same); rc != 0 {
		t.Errorf("same runs: exit %d\n%s", rc, out.String())
	}
	if !strings.Contains(out.String(), "relay-sat") || !strings.Contains(out.String(), "op_p50_us") || !strings.Contains(out.String(), "loopback") {
		t.Errorf("report lacks the row or the machine descriptor:\n%s", out.String())
	}
	// Metrics a workload never reports get no row.
	if strings.Contains(out.String(), "sync-replay") {
		t.Errorf("row for a workload with no runs:\n%s", out.String())
	}
	out.Reset()
	if rc := compareFiles(&out, base, bad); rc != 1 || !strings.Contains(out.String(), vRegression) {
		t.Errorf("50 %% worse: exit %d\n%s", rc, out.String())
	}
	// The accuracy row is exact at a fixed seed and held to 1 %: values
	// that differ from seed to seed but agree seed by seed pass, even
	// while the timing row regresses.
	if !regexp.MustCompile(`offset_err_median_us.*\bok\b`).MatchString(out.String()) {
		t.Errorf("accuracy row not ok:\n%s", out.String())
	}
	out.Reset()
	if rc := compareFiles(&out, base, allNoisy); rc != 1 || !strings.Contains(out.String(), vRefused) {
		t.Errorf("all runs noisy: exit %d, want a refusal rather than a regression\n%s", rc, out.String())
	}
	// A metric the workload does not report gets no row, set-aside runs or not.
	if strings.Contains(out.String(), "exchanges_per_s") {
		t.Errorf("row for a metric relay-sat never reports:\n%s", out.String())
	}
	if rc := compareFiles(&out, base, filepath.Join(dir, "absent.json")); rc != 2 {
		t.Errorf("missing file: exit %d", rc)
	}
}

// BENCHMARK.json is what the driver reads; defs.go is what the program
// prints. They must name the same things.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in defs.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		use(w.Name, "")
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in defs.go", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is %d characters", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(gateMetrics) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in defs.go", len(spec.EndToEnd), len(gateMetrics))
	}
	setup := false
	for i, m := range spec.EndToEnd {
		use(m.Name, m.Unit)
		if d := gateMetrics[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v in defs.go", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in end_to_end")
	}
	if len(spec.PerLayer) != len(layerMetrics) || len(spec.PerLayer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in defs.go", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		use(m.Name, m.Unit)
		if d := layerMetrics[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v in defs.go", i, m, d)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
	// Every gate metric of every workload has a source among the
	// workload's own metrics.
	for _, w := range workloads {
		for _, d := range gateMetrics {
			src := d.Name
			if from, ok := gateFrom[w.Name][d.Name]; ok {
				src = from.own
			}
			if _, ok := findMetric(ownMetrics, src); !ok {
				t.Errorf("%s: gate metric %s reads %s, which no workload declares", w.Name, d.Name, src)
			}
		}
	}
}

// TestQuickSmoke runs every workload end to end with 1 s windows, and
// one of them traced: the numbers mean nothing, the plumbing must hold.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about a second each")
	}
	driverLine := func(args ...string) map[string]json.RawMessage {
		t.Helper()
		var out bytes.Buffer
		if rc := run(args, &out); rc != 0 {
			t.Fatalf("bench %v: exit %d\n%s", args, rc, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := line[k]; !ok || len(line) != 4 {
				t.Fatalf("result keys: %v", line)
			}
		}
		if string(line["correct"]) != "true" {
			t.Fatalf("bench %v: not correct\n%s", args, out.String())
		}
		return line
	}
	metricNames := func(line map[string]json.RawMessage) map[string]bool {
		var ms map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(line["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for n, m := range ms {
			if m.Value == nil || m.Unit == "" {
				t.Errorf("metric %s lacks a value or a unit", n)
			}
			names[n] = true
		}
		return names
	}
	for _, w := range workloads {
		got := metricNames(driverLine("-quick", "-workload", w.Name, "-seed", "2"))
		if len(got) != len(gateMetrics) {
			t.Errorf("%s: %d metrics, want the %d of end_to_end", w.Name, len(got), len(gateMetrics))
		}
		for _, d := range gateMetrics {
			if !got[d.Name] {
				t.Errorf("%s: no %s", w.Name, d.Name)
			}
		}
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	got := metricNames(driverLine("-quick", "-workload", "sync-replay", "-trace", "1", "-spans", spans))
	if len(got) != len(layerMetrics) {
		t.Errorf("traced run: %d metrics, want the %d of per_layer", len(got), len(layerMetrics))
	}
	b, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var recorded []span
	if err := json.Unmarshal(b, &recorded); err != nil || len(recorded) == 0 {
		t.Errorf("span file: %v, %d spans", err, len(recorded))
	}
}
