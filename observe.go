package tscclock

// Production observability for the relay: NewRelayMetrics wires a
// metrics.Registry to every layer of cmd/ntpserver — serving counters,
// shard supervisor restarts, the abuse limiter, and in relay mode the
// ensemble's ladder state, health summary, per-server trust diagnostics
// and upstream connection slots — and NewObservabilityMux serves it
// alongside the /healthz and /readyz probes. Every count is a metric
// cell its layer already writes (the same cells Server.Stats and the
// stats log lines read), and everything else is sampled at scrape time
// from the published readout, so a scrape never touches the packet hot
// path.

import (
	"net/http"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/ntp"
	"repro/internal/ratelimit"
)

// RelayMetricsConfig names the layers NewRelayMetrics instruments. Any
// nil field is simply skipped, so the same constructor covers the
// stratum-1 server (no Multi), an unlimited deployment (no Limit), and
// the full relay.
type RelayMetricsConfig struct {
	// Server provides the per-packet serving counters.
	Server *ntp.Server
	// Shards provides the shard supervisor's restart tally.
	Shards *ntp.Shards
	// Multi provides the ensemble readout, ladder state and upstream
	// connection slots (relay mode).
	Multi *MultiLive
	// Limit provides the abuse limiter's table occupancy and fail-open
	// counter (denials themselves are counted by Server).
	Limit *ratelimit.Limiter
}

// NewRelayMetrics builds the relay's metric registry. Counter families
// render the cells their layers count into; instantaneous state (ladder
// rung, weights, corrections) lands in gauges set at scrape time. The
// registry is ready for NewObservabilityMux or metrics.Registry.Handler.
func NewRelayMetrics(cfg RelayMetricsConfig) *metrics.Registry {
	reg := metrics.NewRegistry()
	if cfg.Server != nil {
		cfg.Server.RegisterMetrics(reg)
	}
	if cfg.Shards != nil {
		cfg.Shards.RegisterMetrics(reg)
	}
	if cfg.Limit != nil {
		cfg.Limit.RegisterMetrics(reg)
	}

	if ml := cfg.Multi; ml != nil {
		reg.GaugeFunc("tscclock_ladder_state", "Degradation-ladder state read at scrape time (0 unsynced, 1 holdover, 2 degraded, 3 synced).", func() float64 {
			return float64(ml.ens.State(ml.counter()))
		})
		reg.GaugeFunc("tscclock_ready", "1 while the ladder is at DEGRADED or better (the /readyz predicate).", func() float64 {
			return boolGauge(ml.Ready())
		})
		reg.CounterFunc("tscclock_exchanges_total", "Upstream NTP exchanges fed to the ensemble.", func() uint64 {
			return uint64(ml.ens.Readout().Exchanges)
		})
		voting := reg.Gauge("tscclock_voting_servers", "Servers backing the combined vote.")
		falsetickers := reg.Gauge("tscclock_falsetickers", "Ready servers voted out by interval intersection.")
		stratum := reg.Gauge("tscclock_health_stratum", "Advertised upstream stratum of the voting set.")
		errScale := reg.Gauge("tscclock_health_err_scale_seconds", "Widest voting error scale (root-dispersion base).")

		serverLabel := []string{"server"}
		weight := reg.GaugeVec("tscclock_server_weight", "Normalized combining weight per upstream.", serverLabel...)
		asymHint := reg.GaugeVec("tscclock_server_asymmetry_seconds", "Signed asymmetry hint against the selected-set midpoint.", serverLabel...)
		asymCorr := reg.GaugeVec("tscclock_server_asym_correction_seconds", "Applied damped path-asymmetry correction.", serverLabel...)
		selected := reg.GaugeVec("tscclock_server_selected", "1 while the upstream is in the truechimer set.", serverLabel...)
		penalty := reg.GaugeVec("tscclock_server_penalty_seconds", "Decaying trust penalty per upstream.", serverLabel...)
		connected := reg.GaugeVec("tscclock_upstream_connected", "1 while the upstream slot holds a socket.", serverLabel...)
		dials := reg.CounterVec("tscclock_upstream_dials_total", "Successful upstream dials (beyond 1 per slot: reconnections).", serverLabel...)
		dialFailures := reg.CounterVec("tscclock_upstream_dial_failures_total", "Failed upstream dial attempts.", serverLabel...)
		kernelTa := reg.CounterVec("tscclock_upstream_kernel_ta_total", "Exchanges whose client send stamp (Ta) came from the kernel error-queue TX stamp.", serverLabel...)
		kernelTf := reg.CounterVec("tscclock_upstream_kernel_tf_total", "Exchanges whose client receive stamp (Tf) came from the kernel RX cmsg stamp.", serverLabel...)
		stampMisses := reg.CounterVec("tscclock_upstream_stamp_misses_total", "Per-stamp fallbacks to userspace readings on successful exchanges.", serverLabel...)
		stampClamped := reg.CounterVec("tscclock_upstream_stamp_clamped_total", "Client kernel stamps (Ta and Tf) rejected or clipped by the shared trust clamp — a rising value means the host clock is stepping.", serverLabel...)
		taDelta := reg.GaugeVec("tscclock_upstream_ta_delta_seconds", "EWMA of the kernel-vs-userspace send-stamp delta: the client-side TX stamping noise shed by kernel timestamps.", serverLabel...)
		tfDelta := reg.GaugeVec("tscclock_upstream_tf_delta_seconds", "EWMA of the kernel-vs-userspace receive-stamp delta: the client-side RX stamping noise shed by kernel timestamps.", serverLabel...)

		// Resolve the per-server cells once: server count is fixed for
		// the life of a MultiLive. The slot's counters are rendered in
		// place; its gauges are set from the slot at scrape time.
		type serverCells struct {
			weight, asymHint, asymCorr, selected, penalty, connected *metrics.Gauge
			taDelta, tfDelta                                         *metrics.Gauge
		}
		cells := make([]serverCells, len(ml.ups))
		for k, up := range ml.ups {
			lv := strconv.Itoa(k)
			cells[k] = serverCells{
				weight:    weight.With(lv),
				asymHint:  asymHint.With(lv),
				asymCorr:  asymCorr.With(lv),
				selected:  selected.With(lv),
				penalty:   penalty.With(lv),
				connected: connected.With(lv),
				taDelta:   taDelta.With(lv),
				tfDelta:   tfDelta.With(lv),
			}
			dials.Register(&up.dials, lv)
			dialFailures.Register(&up.dialFailures, lv)
			kernelTa.Register(&up.kernelTa, lv)
			kernelTf.Register(&up.kernelTf, lv)
			stampMisses.Register(&up.stampMiss, lv)
			stampClamped.Register(&up.stampClamped, lv)
		}
		reg.OnScrape(func() {
			r := ml.ens.Readout()
			voting.Set(float64(r.VotingCount))
			falsetickers.Set(float64(r.Falsetickers))
			stratum.Set(float64(r.Health.Stratum))
			errScale.Set(r.Health.ErrScale)
			ups := ml.UpstreamStates()
			for k := range cells { // one cell per server, one record per server
				sr := &r.Servers[k]
				cells[k].weight.Set(sr.Weight)
				cells[k].asymHint.Set(sr.AsymmetryHint)
				cells[k].asymCorr.Set(sr.AsymCorrection)
				cells[k].penalty.Set(sr.Penalty)
				cells[k].selected.Set(boolGauge(sr.Selected))
				cells[k].connected.Set(boolGauge(ups[k].Connected))
				cells[k].taDelta.Set(ups[k].TaDelta)
				cells[k].tfDelta.Set(ups[k].TfDelta)
			}
		})
	}
	return reg
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// NewObservabilityMux assembles the relay's sidecar HTTP surface:
//
//   - /metrics: the registry in Prometheus text exposition format;
//   - /healthz: liveness — 200 while the process can answer HTTP at
//     all (a relay in HOLDOVER is alive, just not preferable);
//   - /readyz: readiness — 200 while ready() holds (the relay wires
//     MultiLive.Ready: ladder at DEGRADED or better), 503 otherwise,
//     so load balancers drain replicas that lost their upstream vote
//     without killing them.
//
// ready may be nil (a stratum-1 server stamping from the OS clock is
// always ready). The mux is served on a separate listener from the NTP
// shards: observability must not share fate with the packet path.
func NewObservabilityMux(reg *metrics.Registry, ready func() bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready == nil || ready() {
			w.Write([]byte("ready\n"))
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("not ready\n"))
	})
	return mux
}
