// Command ntpserver runs the bundled NTP server in one of two modes:
//
//   - stratum-1 (default): stamp requests from the OS clock, as a
//     simple reference server for this repository's synchronizer and
//     ordinary NTP clients;
//   - stratum-2 relay (-upstream): synchronize the robust ensemble
//     clock against two or more upstream NTP servers over UDP
//     (MultiLive: per-server engines, trust scoring, interval
//     selection, weighted-median combining) and serve the combined
//     clock downstream, with the advertised stratum, leap, root delay
//     and root dispersion derived from the ensemble's published
//     health.
//
// Serving fans out across -shards sockets on one address
// (SO_REUSEPORT on Linux, shared-socket readers elsewhere); every
// shard stamps from the lock-free published readout, so reply
// throughput scales across cores without contending with the upstream
// pollers. SIGINT/SIGTERM close the listeners, drain the shards, and
// print final counters, so the relay runs cleanly under a supervisor.
//
// -http starts the observability sidecar on a separate TCP listener:
// /metrics (Prometheus text exposition of the serving counters, abuse
// limiter and ensemble health), /healthz (liveness) and /readyz
// (readiness: the ensemble's degradation ladder at DEGRADED or
// better). -limit arms the per-client-prefix token-bucket limiter on
// the packet path.
//
// Usage:
//
//	ntpserver -listen 127.0.0.1:1123 -refid GPS
//	ntpserver -listen :1123 -shards 4 \
//	    -upstream time1.example:123,time2.example:123,time3.example:123 \
//	    -http 127.0.0.1:9123 -limit 64
//
// (Binding the privileged default port 123 requires root.)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	tscclock "repro"
	"repro/internal/ntp"
	"repro/internal/ratelimit"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:1123", "UDP address to listen on")
		refid    = flag.String("refid", "", `reference identifier to advertise (default "GPS", or "TSCC" in relay mode)`)
		shards   = flag.Int("shards", runtime.GOMAXPROCS(0), "serving sockets/readers on the listen address")
		upstream = flag.String("upstream", "", "comma-separated upstream NTP servers; enables stratum-2 relay mode")
		poll     = flag.Duration("poll", 64*time.Second, "upstream polling interval floor; warmup polls at a quarter of it (relay mode)")
		stats    = flag.Duration("stats", time.Minute, "period of the serving-counter log lines (0 disables)")
		httpAddr = flag.String("http", "", "TCP address for the /metrics, /healthz and /readyz observability endpoints (empty disables)")
		limit    = flag.Float64("limit", 0, "per-client-prefix (/24, /48) request budget in req/s, burst 2x (0 disables)")
		txstamp  = flag.Bool("txstamp", false, "arm kernel TX error-queue timestamps and forward-date Transmit by the measured send dwell (Linux recvmmsg/sendmmsg I/O)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		srv    *ntp.Server
		ml     *tscclock.MultiLive
		sample ntp.SampleClock
		err    error
	)
	var lim *ratelimit.Limiter
	if *limit > 0 {
		lim = ratelimit.New(ratelimit.Config{Rate: *limit, Burst: 2 * *limit})
	}
	var servers []string
	for _, s := range strings.Split(*upstream, ",") {
		if s = strings.TrimSpace(s); s != "" {
			servers = append(servers, s)
		}
	}
	if len(servers) > 0 {
		if *refid == "" {
			*refid = "TSCC"
		}
		ml, err = tscclock.DialMultiLive(tscclock.MultiLiveOptions{
			Servers: servers,
			Poll:    *poll,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer ml.Close()
		go func() {
			// Exchange failures are tolerated (the clock coasts); the
			// pollers run until shutdown.
			_ = ml.Run(ctx, nil)
		}()
		sample = ml.ServerSample(ntp.RefIDFromString(*refid))
		srv, err = ntp.NewServer(ntp.ServerConfig{Sample: sample, Limit: lim, TxStamp: *txstamp})
		if err != nil {
			log.Fatal(err)
		}
	} else {
		if *refid == "" {
			*refid = "GPS"
		}
		srv, err = ntp.NewServer(ntp.ServerConfig{
			Clock:   ntp.SystemServerClock(),
			RefID:   ntp.RefIDFromString(*refid),
			Limit:   lim,
			TxStamp: *txstamp,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	sh, err := srv.ListenShards("udp", *listen, *shards)
	if err != nil {
		log.Fatal(err)
	}
	mode := "stratum-1 (OS clock)"
	if ml != nil {
		mode = fmt.Sprintf("stratum-2 relay (%d upstreams, poll %v)", len(servers), *poll)
	}
	reuse := "shared socket"
	if sh.ReusePort() {
		reuse = "SO_REUSEPORT"
	}
	fmt.Printf("ntpserver %s (refid %s) on %s, %d shards (%s)\n",
		mode, *refid, sh.Addr(), sh.Size(), reuse)

	// Observability sidecar: a separate TCP listener so a scrape storm
	// or probe misconfiguration cannot share fate with the UDP packet
	// path. Binding errors are config errors — fail fast.
	if *httpAddr != "" {
		reg := tscclock.NewRelayMetrics(tscclock.RelayMetricsConfig{
			Server: srv, Shards: sh, Multi: ml, Limit: lim,
		})
		var ready func() bool
		if ml != nil {
			ready = ml.Ready
		}
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		fmt.Printf("observability on http://%s (/metrics /healthz /readyz)\n", ln.Addr())
		go func() {
			hs := &http.Server{Handler: tscclock.NewObservabilityMux(reg, ready)}
			if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed && ctx.Err() == nil {
				log.Printf("observability server: %v", err)
			}
		}()
	}

	if *stats > 0 {
		go logStats(ctx, srv, sh, ml, sample, *stats)
	}

	err = sh.Serve(ctx)
	// Drained: report the final counters before exiting.
	fmt.Printf("shutdown: %s\n", statsLine(srv, sh, ml, sample))
	if err != nil {
		log.Fatal(err)
	}
}

// logStats prints one counter line per period until the context ends.
func logStats(ctx context.Context, srv *ntp.Server, sh *ntp.Shards, ml *tscclock.MultiLive, sample ntp.SampleClock, period time.Duration) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			log.Print(statsLine(srv, sh, ml, sample))
		}
	}
}

// statsLine renders the serving counters, the shard supervisor's
// restart tally, and in relay mode the ensemble's health — its
// degradation-ladder state and upstream connectivity included — read
// through the same sample the shards serve from, all lock-free.
func statsLine(srv *ntp.Server, sh *ntp.Shards, ml *tscclock.MultiLive, sample ntp.SampleClock) string {
	st := srv.Stats()
	line := fmt.Sprintf("served %d/%d requests (dropped %d: %d short, %d malformed, %d non-client; %d rate-limited; %d write errors)",
		st.Replied, st.Requests, st.Dropped(), st.Short, st.Malformed, st.NonClient, st.RateLimited, st.WriteErrors)
	if st.Replied > 0 {
		line += fmt.Sprintf("; %.3g syscalls/reply", float64(st.RecvCalls+st.SendCalls)/float64(st.Replied))
	}
	if st.KernelRx+st.KernelRxMissing > 0 {
		line += fmt.Sprintf("; kernel rx stamps %d/%d", st.KernelRx, st.KernelRx+st.KernelRxMissing)
	}
	if st.KernelTx+st.KernelTxMissing > 0 {
		line += fmt.Sprintf("; kernel tx stamps %d/%d, tx dwell ewma %v, clamped %d",
			st.KernelTx, st.KernelTx+st.KernelTxMissing, st.TxDwellEWMA, st.StampClamped)
	}
	var restarts uint64
	var lastErr error
	for _, s := range sh.Stats() {
		restarts += s.Restarts
		if s.LastError != nil {
			lastErr = s.LastError
		}
	}
	if restarts > 0 {
		line += fmt.Sprintf("; %d shard restarts (last: %v)", restarts, lastErr)
	}
	if ml != nil {
		r := ml.Ensemble().Readout()
		line += fmt.Sprintf("; upstream: %s, %d voting, %d exchanges, %d/%d ready, %d selected, %d falsetickers, stratum %d",
			r.State(ml.Counter()), r.VotingCount, r.Exchanges, r.ReadyCount, len(r.Servers),
			r.SelectedCount, r.Falsetickers, sample().Stratum)
		connected, redials, dialFails := 0, uint64(0), uint64(0)
		for _, up := range ml.UpstreamStates() {
			if up.Connected {
				connected++
			}
			if up.Dials > 1 {
				redials += up.Dials - 1
			}
			dialFails += up.DialFailures
		}
		line += fmt.Sprintf("; conns: %d/%d up, %d redials, %d dial failures",
			connected, len(ml.UpstreamStates()), redials, dialFails)
	}
	return line
}
