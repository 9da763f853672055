package tscclock

// The relay's exposition, pinned. The serving counters are metric cells
// their layers own, registered from three packages; what a scrape shows
// is still one contract with whoever graphs it, so its shape is held
// here in one list: rendered against it, scraped under load against
// it, and checked against the documentation with it.

import (
	"context"
	"net"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/ntp"
	"repro/internal/ratelimit"
)

// relayFamilies is every family NewRelayMetrics registers with all four
// layers set — name, type and help, in exposition order — as captured
// from the commit before the counters became cells (PR 14). A change
// here is a change to what operators scrape: make it on purpose.
var relayFamilies = []struct{ name, typ, help string }{
	{"ntp_requests_total", "counter", "Datagrams received on the serving sockets."},
	{"ntp_replies_total", "counter", "Server-mode replies sent."},
	{"ntp_dropped_total", "counter", "Datagrams dropped before a reply, by reason."},
	{"ntp_rate_limited_total", "counter", "Requests dropped by the per-prefix token bucket."},
	{"ntp_write_errors_total", "counter", "Reply writes that failed."},
	{"ntp_recv_syscalls_total", "counter", "Receive syscalls issued by the serving loops (recvmmsg drains a whole batch per call)."},
	{"ntp_send_syscalls_total", "counter", "Send syscalls issued by the serving loops (sendmmsg answers a whole batch per call)."},
	{"ntp_kernel_rx_stamps_total", "counter", "Batched datagrams carrying a usable kernel SO_TIMESTAMPING RX timestamp."},
	{"ntp_kernel_rx_missing_total", "counter", "Batched datagrams served without a usable kernel RX timestamp."},
	{"ntp_kernel_tx_stamps_total", "counter", "Replies whose kernel TX stamp came back on the error queue and correlated to a recorded send."},
	{"ntp_kernel_tx_missing_total", "counter", "Error-queue entries without a usable, correlatable TX stamp."},
	{"ntp_stamp_clamped_total", "counter", "Kernel timestamps (RX and TX) rejected or clipped by the shared trust clamp — a rising value means the host clock is stepping."},
	{"ntp_tx_dwell_seconds", "histogram", "Measured userspace-to-kernel TX dwell per stamped reply."},
	{"ntp_tx_dwell_ewma_seconds", "gauge", "Current TX dwell EWMA: the forward-dating the serving loop applies to Transmit when -txstamp is on (before the clamp)."},
	{"ntp_rx_batch_avg", "gauge", "Mean datagrams drained per receive syscall since start."},
	{"ntp_shard_restarts_total", "counter", "Serving-loop failures recovered by the shard supervisor."},
	{"ntp_shards", "gauge", "Serving shards on the listen address."},
	{"ratelimit_tracked_prefixes", "gauge", "Client prefixes with a live token bucket."},
	{"ratelimit_untracked_total", "counter", "Requests admitted without tracking because the bucket table was full (fail open)."},
	{"tscclock_ladder_state", "gauge", "Degradation-ladder state read at scrape time (0 unsynced, 1 holdover, 2 degraded, 3 synced)."},
	{"tscclock_ready", "gauge", "1 while the ladder is at DEGRADED or better (the /readyz predicate)."},
	{"tscclock_exchanges_total", "counter", "Upstream NTP exchanges fed to the ensemble."},
	{"tscclock_voting_servers", "gauge", "Servers backing the combined vote."},
	{"tscclock_falsetickers", "gauge", "Ready servers voted out by interval intersection."},
	{"tscclock_health_stratum", "gauge", "Advertised upstream stratum of the voting set."},
	{"tscclock_health_err_scale_seconds", "gauge", "Widest voting error scale (root-dispersion base)."},
	{"tscclock_server_weight", "gauge", "Normalized combining weight per upstream."},
	{"tscclock_server_asymmetry_seconds", "gauge", "Signed asymmetry hint against the selected-set midpoint."},
	{"tscclock_server_asym_correction_seconds", "gauge", "Applied damped path-asymmetry correction."},
	{"tscclock_server_selected", "gauge", "1 while the upstream is in the truechimer set."},
	{"tscclock_server_penalty_seconds", "gauge", "Decaying trust penalty per upstream."},
	{"tscclock_upstream_connected", "gauge", "1 while the upstream slot holds a socket."},
	{"tscclock_upstream_dials_total", "counter", "Successful upstream dials (beyond 1 per slot: reconnections)."},
	{"tscclock_upstream_dial_failures_total", "counter", "Failed upstream dial attempts."},
	{"tscclock_upstream_kernel_ta_total", "counter", "Exchanges whose client send stamp (Ta) came from the kernel error-queue TX stamp."},
	{"tscclock_upstream_kernel_tf_total", "counter", "Exchanges whose client receive stamp (Tf) came from the kernel RX cmsg stamp."},
	{"tscclock_upstream_stamp_misses_total", "counter", "Per-stamp fallbacks to userspace readings on successful exchanges."},
	{"tscclock_upstream_stamp_clamped_total", "counter", "Client kernel stamps (Ta and Tf) rejected or clipped by the shared trust clamp — a rising value means the host clock is stepping."},
	{"tscclock_upstream_ta_delta_seconds", "gauge", "EWMA of the kernel-vs-userspace send-stamp delta: the client-side TX stamping noise shed by kernel timestamps."},
	{"tscclock_upstream_tf_delta_seconds", "gauge", "EWMA of the kernel-vs-userspace receive-stamp delta: the client-side RX stamping noise shed by kernel timestamps."},
}

// fullRelay boots every layer NewRelayMetrics instruments: two loopback
// upstreams behind a MultiLive, a limiter, and a two-shard server.
func fullRelay(t *testing.T) (*MultiLive, *ntp.Shards, *metrics.Registry) {
	t.Helper()
	ml, err := DialMultiLive(MultiLiveOptions{
		Servers: []string{startServer(t).String(), startServer(t).String()},
		Poll:    10 * time.Millisecond,
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ml.Close() })
	lim := ratelimit.New(ratelimit.Config{Rate: 1e9, Burst: 1e9})
	srv, err := ntp.NewServer(ntp.ServerConfig{Sample: ml.ServerSample(ntp.RefIDFromString("TSCC")), Limit: lim})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := srv.ListenShards("udp", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return ml, sh, NewRelayMetrics(RelayMetricsConfig{Server: srv, Shards: sh, Multi: ml, Limit: lim})
}

func scrape(t *testing.T, reg *metrics.Registry) string {
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Error(err)
	}
	return b.String()
}

// TestRelayMetricsExposition: the # HELP and # TYPE lines of a full
// relay's scrape are exactly the pinned list, in its order.
func TestRelayMetricsExposition(t *testing.T) {
	_, _, reg := fullRelay(t)
	var got []string
	for _, line := range strings.Split(scrape(t, reg), "\n") {
		if strings.HasPrefix(line, "# ") {
			got = append(got, line)
		}
	}
	var want []string
	for _, f := range relayFamilies {
		want = append(want, "# HELP "+f.name+" "+f.help, "# TYPE "+f.name+" "+f.typ)
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("header line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}

// TestRelayMetricsMonotoneUnderLoad scrapes from several goroutines
// while the shards serve and the upstream pollers run (CI runs it under
// -race): every counter series — histogram buckets, sum and count
// included — must be non-decreasing from one scrape to the next on each
// scraper. The counters are the cells the loop writes, so there is no
// fold to serialize and nothing for concurrent scrapes to double-count.
func TestRelayMetricsMonotoneUnderLoad(t *testing.T) {
	ml, sh, reg := fullRelay(t)
	ctx, cancel := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { defer bg.Done(); sh.Serve(ctx) }()
	go func() { defer bg.Done(); ml.Run(ctx, nil) }()
	defer func() { cancel(); bg.Wait() }()

	monotone := map[string]bool{}
	for _, f := range relayFamilies {
		switch f.typ {
		case "counter":
			monotone[f.name] = true
		case "histogram":
			monotone[f.name+"_bucket"], monotone[f.name+"_sum"], monotone[f.name+"_count"] = true, true, true
		}
	}

	stop := make(chan struct{})
	var load sync.WaitGroup
	for c := 0; c < 2; c++ {
		load.Add(1)
		go func() { // requests of every fate: served, short, malformed
			defer load.Done()
			conn, err := net.Dial("udp", sh.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			good := ntp.Packet{Version: 4, Mode: ntp.ModeClient, Transmit: 1}
			wire := good.Marshal()
			bad := wire
			bad[0] &^= 0x7 << 3 // version 0
			var buf [512]byte
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				conn.Write(wire[:])
				conn.Write(wire[:20])
				conn.Write(bad[:])
				conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
				conn.Read(buf[:])
			}
		}()
	}

	var scrapers sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			last := map[string]float64{}
			for round := 0; round < 40; round++ {
				for _, line := range strings.Split(scrape(t, reg), "\n") {
					if line == "" || line[0] == '#' {
						continue
					}
					sp := strings.LastIndexByte(line, ' ')
					series := line[:sp]
					name, _, _ := strings.Cut(series, "{")
					if !monotone[name] {
						continue
					}
					v, err := strconv.ParseFloat(line[sp+1:], 64)
					if err != nil {
						t.Errorf("%q: %v", line, err)
						continue
					}
					if v < last[series] {
						t.Errorf("scrape %d: %s went from %v to %v", round, series, last[series], v)
					}
					last[series] = v
				}
				time.Sleep(2 * time.Millisecond)
			}
			if last["ntp_replies_total"] == 0 || last[`ntp_dropped_total{reason="short"}`] == 0 {
				t.Errorf("no traffic reached the scrapes: %v replies, %v short", last["ntp_replies_total"], last[`ntp_dropped_total{reason="short"}`])
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	load.Wait()
}

var metricToken = regexp.MustCompile(`\b(?:ntp|tscclock|ratelimit)_[a-z0-9_]+\b`)

// TestMetricsDocumented: every registered family is listed in README's
// metrics section, and every metric name README.md or ARCHITECTURE.md
// mentions is one the relay registers.
func TestMetricsDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### Metrics, health and rate limiting")
	if !ok {
		t.Fatal("README.md has no \"Metrics, health and rate limiting\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	listed := map[string]bool{}
	for _, tok := range metricToken.FindAllString(section, -1) {
		listed[tok] = true
	}
	registered := map[string]bool{}
	for _, f := range relayFamilies {
		registered[f.name] = true
		if !listed[f.name] {
			t.Errorf("README's metrics section does not list %s", f.name)
		}
	}
	for _, doc := range []string{"README.md", "ARCHITECTURE.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range metricToken.FindAllString(string(text), -1) {
			if !registered[tok] {
				t.Errorf("%s mentions %s, which the relay does not register", doc, tok)
			}
		}
	}
}
