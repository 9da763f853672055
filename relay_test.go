package tscclock

// The serving-layer end-to-end test: the complete stratum-2 relay data
// flow of cmd/ntpserver on loopback — upstream stratum-1 servers →
// MultiLive ensemble synchronization → sharded downstream serving from
// the published readout → a real NTP client query against the shard
// listeners. CI's serving job runs this under -race: the upstream
// pollers write (publish readouts) while the shards read them
// concurrently for every reply.

import (
	"context"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ensemble"
	"repro/internal/ntp"
	"repro/internal/ratelimit"
)

// queryRelay performs one raw client-mode exchange against addr.
func queryRelay(t *testing.T, addr net.Addr) ntp.Packet {
	t.Helper()
	conn, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := ntp.Packet{Version: 4, Mode: ntp.ModeClient, Transmit: ntp.Time64FromTime(time.Now())}
	wire := req.Marshal()
	if _, err := conn.Write(wire[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var buf [512]byte
	n, err := conn.Read(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	var resp ntp.Packet
	if err := resp.Unmarshal(buf[:n]); err != nil {
		t.Fatal(err)
	}
	return resp
}

// startServerAtStratum runs a loopback NTP server advertising the
// given stratum (e.g. 16: a server whose own chain is unsynchronized
// but which still answers with plausible stamps).
func startServerAtStratum(t *testing.T, stratum uint8) net.Addr {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ntp.NewServer(ntp.ServerConfig{Sample: func() ntp.ClockSample {
		return ntp.ClockSample{Time: ntp.Time64FromTime(time.Now()), Stratum: stratum, Precision: -20, RefID: ntp.RefIDFromString("GPS")}
	}})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(pc)
	t.Cleanup(func() { pc.Close() })
	return pc.LocalAddr()
}

// stepAll feeds rounds exchanges from every upstream of m.
func stepAll(t *testing.T, m *MultiLive, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		for k := range m.ups {
			if _, err := m.Step(k); err != nil {
				t.Fatalf("server %d step %d: %v", k, i, err)
			}
		}
	}
}

// TestRelayPropagatesUnsyncedUpstream: upstreams that answer with
// plausible stamps but advertise stratum 16 (their own chain is dead)
// must not be re-served as a confident stratum 2 — the relay has to
// propagate the unsynchronized condition, with one upstream as with
// several. And a healthy upstream that then goes dark must decay: the
// one-server relay sample grows its dispersion through HOLDOVER and
// ends at LeapNotSynced/16 once UnsyncedAfter has passed.
func TestRelayPropagatesUnsyncedUpstream(t *testing.T) {
	refID := ntp.RefIDFromString("TSCC")
	for _, n := range []int{1, 2} {
		var servers []string
		for k := 0; k < n; k++ {
			servers = append(servers, startServerAtStratum(t, ntp.StratumUnsynced).String())
		}
		m, err := DialMultiLive(MultiLiveOptions{Servers: servers, Poll: 20 * time.Millisecond, Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		stepAll(t, m, 40) // well past the 32-sample warmup
		if !m.Ensemble().Readout().Synced() {
			t.Fatalf("%d upstreams: ensemble did not calibrate (test harness lost its teeth)", n)
		}
		if s := m.ServerSample(refID)(); s.Leap != ntp.LeapNotSynced || s.Stratum != ntp.StratumUnsynced {
			t.Errorf("relay behind %d stratum-16 upstreams advertises leap=%d stratum=%d, want unsynced", n, s.Leap, s.Stratum)
		}
	}

	m, err := DialMultiLive(MultiLiveOptions{
		Servers: []string{startServer(t).String()},
		Poll:    20 * time.Millisecond,
		Timeout: 2 * time.Second,
		Ensemble: EnsembleOptions{
			HoldoverAfter: 250 * time.Millisecond,
			UnsyncedAfter: 1500 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	stepAll(t, m, 40)
	sample := m.ServerSample(refID)
	synced := sample()
	if synced.Leap != ntp.LeapNone || synced.Stratum != 2 {
		t.Fatalf("relay behind one healthy stratum-1 upstream advertises leap=%d stratum=%d, want 0/2", synced.Leap, synced.Stratum)
	}
	// The upstream goes dark: no more steps. Watch the sample decay.
	grew := false
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		heldOver := !m.Ready() // read before the sample: HOLDOVER or below
		s := sample()
		if s.Stratum == ntp.StratumUnsynced {
			if s.Leap != ntp.LeapNotSynced {
				t.Errorf("stale relay advertises stratum 16 with leap=%d", s.Leap)
			}
			break
		}
		if heldOver && s.RootDisp > synced.RootDisp {
			grew = true
		}
		if time.Now().After(deadline) {
			t.Fatalf("relay still advertises stratum %d long after UnsyncedAfter", s.Stratum)
		}
	}
	if !grew {
		t.Error("dispersion never grew while the relay held over")
	}
}

// fetch performs one GET against the observability mux under test and
// returns the status code and body.
func fetch(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// parseExposition is a minimal Prometheus text-format validator: every
// line is a comment or `name[{labels}] value`, HELP/TYPE precede their
// family's samples, and the named series are present. It returns the
// sample lines keyed by series name (labels stripped).
func parseExposition(t *testing.T, body string) map[string]bool {
	t.Helper()
	seen := map[string]bool{}
	typed := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: blank line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# ") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if f[1] == "TYPE" {
				typed[f[2]] = true
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator in %q", ln+1, line)
		}
		series, value := line[:sp], line[sp+1:]
		if value == "" {
			t.Fatalf("line %d: empty value in %q", ln+1, line)
		}
		name := series
		if br := strings.IndexByte(series, '{'); br >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated label set in %q", ln+1, line)
			}
			name = series[:br]
		}
		if !typed[name] {
			// Histogram families type the base name while their samples
			// carry the conventional suffixes.
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if s, ok := strings.CutSuffix(name, suf); ok {
					base = s
					break
				}
			}
			if !typed[base] {
				t.Fatalf("line %d: sample %q precedes its # TYPE", ln+1, name)
			}
		}
		seen[name] = true
	}
	return seen
}

// TestRelayHealthEndpoints: the observability sidecar against a live
// relay — /readyz tracks the degradation ladder (UNSYNCED not ready →
// SYNCED ready → HOLDOVER not ready once the upstreams go quiet),
// /healthz stays 200 throughout, and /metrics serves a parseable
// exposition while the shards answer NTP concurrently.
func TestRelayHealthEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second loopback relay test")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	upstreams := []string{startServer(t).String(), startServer(t).String()}
	ml, err := DialMultiLive(MultiLiveOptions{
		Servers: upstreams,
		Poll:    25 * time.Millisecond,
		Timeout: 2 * time.Second,
		// Short staleness caps so the ladder visibly decays within the
		// test: no combine for 300 ms reads as HOLDOVER.
		Ensemble: EnsembleOptions{
			HoldoverAfter: 300 * time.Millisecond,
			UnsyncedAfter: 10 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()

	limit := ratelimit.New(ratelimit.Config{})
	srv, err := ntp.NewServer(ntp.ServerConfig{
		Sample: ml.ServerSample(ntp.RefIDFromString("TSCC")),
		Limit:  limit,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.ListenShards("udp", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- sh.Serve(ctx) }()
	defer func() { cancel(); <-served }()

	reg := NewRelayMetrics(RelayMetricsConfig{Server: srv, Shards: sh, Multi: ml, Limit: limit})
	ts := httptest.NewServer(NewObservabilityMux(reg, ml.Ready))
	defer ts.Close()

	// Before any upstream sync: alive, not ready.
	if code, _ := fetch(t, ts, "/healthz"); code != 200 {
		t.Fatalf("/healthz before sync = %d, want 200", code)
	}
	if code, _ := fetch(t, ts, "/readyz"); code != 503 {
		t.Fatalf("/readyz before sync = %d, want 503 (ladder UNSYNCED)", code)
	}

	// Sync the ensemble; readiness must flip on.
	pollDone := make(chan struct{})
	pollCtx, stopPolling := context.WithCancel(ctx)
	go func() { defer close(pollDone); ml.Run(pollCtx, nil) }()
	deadline := time.Now().Add(30 * time.Second)
	for !ml.Ready() {
		if time.Now().After(deadline) {
			t.Fatalf("relay never became ready: state %v", ml.Ensemble().State(ml.Counter()))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, body := fetch(t, ts, "/readyz"); code != 200 {
		t.Fatalf("/readyz after sync = %d (%q), want 200", code, body)
	}

	// A live NTP query through the shards, then a scrape: the metrics
	// must parse and reflect the traffic just served.
	queryRelay(t, sh.Addr())
	code, body := fetch(t, ts, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	seen := parseExposition(t, body)
	for _, want := range []string{
		"ntp_requests_total", "ntp_replies_total", "ntp_dropped_total",
		"ntp_rate_limited_total", "ntp_shards",
		"ratelimit_tracked_prefixes",
		"tscclock_ladder_state", "tscclock_ready", "tscclock_exchanges_total",
		"tscclock_server_weight", "tscclock_server_asym_correction_seconds",
		"tscclock_upstream_connected",
	} {
		if !seen[want] {
			t.Errorf("/metrics missing series %s", want)
		}
	}
	if !strings.Contains(body, "tscclock_ready 1\n") {
		t.Errorf("scrape while ready lacks tscclock_ready 1:\n%s", body)
	}

	// Silence the upstream pollers: past HoldoverAfter the published
	// readout reads as HOLDOVER and readiness must flip off — while
	// liveness stays up (the relay still answers, with honest bits).
	stopPolling()
	<-pollDone
	notReadyBy := time.Now().Add(5 * time.Second)
	for {
		if code, _ := fetch(t, ts, "/readyz"); code == 503 {
			break
		}
		if time.Now().After(notReadyBy) {
			t.Fatalf("/readyz still ready %v after polling stopped (state %v)",
				5*time.Second, ml.Ensemble().State(ml.Counter()))
		}
		time.Sleep(25 * time.Millisecond)
	}
	if st := ml.Ensemble().State(ml.Counter()); st != ensemble.StateHoldover {
		t.Errorf("ladder state after quiet period = %v, want %v", st, ensemble.StateHoldover)
	}
	if code, _ := fetch(t, ts, "/healthz"); code != 200 {
		t.Errorf("/healthz during holdover != 200")
	}
	if !strings.Contains(fetchBody(t, ts, "/metrics"), "tscclock_ready 0\n") {
		t.Errorf("scrape during holdover lacks tscclock_ready 0")
	}
}

func fetchBody(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	_, body := fetch(t, ts, path)
	return body
}

func TestRelayEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second loopback relay test")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Two upstream stratum-1 servers (the issue's minimum for a
	// meaningful combine; three makes the majority vote stronger).
	upstreams := []string{startServer(t).String(), startServer(t).String()}

	ml, err := DialMultiLive(MultiLiveOptions{
		Servers: upstreams,
		Poll:    25 * time.Millisecond, // loopback: graduate warmup fast
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()

	// Downstream serving: 4 shards stamping from the published readout.
	srv, err := ntp.NewServer(ntp.ServerConfig{
		Sample: ml.ServerSample(ntp.RefIDFromString("TSCC")),
	})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.ListenShards("udp", "127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- sh.Serve(ctx) }()

	// Before any upstream sync the relay must answer — NTP stays up —
	// but advertise itself unsynchronized so clients reject it.
	pre := queryRelay(t, sh.Addr())
	if pre.Leap != ntp.LeapNotSynced || pre.Stratum != ntp.StratumUnsynced {
		t.Errorf("unsynced relay advertised leap=%d stratum=%d, want %d/%d",
			pre.Leap, pre.Stratum, ntp.LeapNotSynced, ntp.StratumUnsynced)
	}

	// Start the upstream pollers and wait for the combine to calibrate.
	go ml.Run(ctx, nil)
	deadline := time.Now().Add(30 * time.Second)
	for !ml.Ensemble().Readout().Synced() {
		if time.Now().After(deadline) {
			r := ml.Ensemble().Readout()
			t.Fatalf("ensemble never synced: %d exchanges, %d ready", r.Exchanges, r.ReadyCount)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A real NTP query against the shard listeners: stratum and leap
	// must now derive from ensemble health (upstreams are stratum 1 →
	// the relay serves stratum 2), and the transmitted time must track
	// the OS clock the upstreams stamp from.
	resp := queryRelay(t, sh.Addr())
	if resp.Leap != ntp.LeapNone {
		t.Errorf("synced relay leap = %d, want %d", resp.Leap, ntp.LeapNone)
	}
	if resp.Stratum != 2 {
		t.Errorf("synced relay stratum = %d, want 2", resp.Stratum)
	}
	if resp.RefID != ntp.RefIDFromString("TSCC") {
		t.Errorf("refid = %x", resp.RefID)
	}
	if d := resp.Transmit.Time(time.Now()).Sub(time.Now()); d > 50*time.Millisecond || d < -50*time.Millisecond {
		t.Errorf("relay time differs from OS clock by %v", d)
	}
	if disp := resp.RootDisp.Seconds(); disp <= 0 || disp > 0.1 {
		t.Errorf("root dispersion %v implausible for a loopback relay", disp)
	}

	// Also sync a full client clock against our own relay: the relay
	// round-trips the whole pipeline (counter stamps → calibration →
	// serving), so a downstream one-server client must calibrate
	// against it too.
	dl, err := DialMultiLive(MultiLiveOptions{Servers: []string{sh.Addr().String()}, Poll: 25 * time.Millisecond, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()
	for i := 0; i < 5; i++ {
		if _, err := dl.Step(0); err != nil {
			t.Fatalf("downstream step %d: %v", i, err)
		}
	}
	if d := dl.Now().Sub(time.Now()); d > 100*time.Millisecond || d < -100*time.Millisecond {
		t.Errorf("downstream client differs from OS clock by %v", d)
	}

	// Graceful shutdown: cancel drains the shards cleanly.
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after cancel = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shards did not drain after cancellation")
	}
	st := srv.Stats()
	if st.Replied < 7 { // 2 raw queries + 5 client steps
		t.Errorf("Replied = %d, want ≥ 7", st.Replied)
	}
}
