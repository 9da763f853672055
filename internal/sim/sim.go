// Package sim composes the substrate models (oscillator, network paths,
// server, host timestamping) into the full measurement setup of the
// paper's Figure 1 and generates deterministic traces of NTP exchanges.
//
// Each exchange record carries two views:
//
//   - the raw data available to the synchronization algorithms — the host
//     counter stamps Ta, Tf and the server payload stamps Tb, Te;
//   - the reference data available only to the evaluation — the
//     DAG-monitor stamp Tg of the returning packet (true time plus
//     ~100 ns jitter, already corrected by the 7.2 µs first-bit offset)
//     and the oracle departure and arrival times ta, tf.
//
// The record is the one a capture file stores. The streams hand out the
// rest of the ground truth — the oracle server times tb, te and the
// corrected receive stamp — as a Truth beside the exchange Next last
// returned; the batch generators keep only the records.
//
// The three stratum-1 servers of the paper's Table 2 (ServerLoc,
// ServerInt, ServerExt) and the two temperature environments (laboratory,
// machine room) are provided as presets, so every experiment names its
// setup the way the paper does (e.g. "MR-Int").
//
//repro:deterministic
package sim

import (
	"fmt"
	"math"

	"repro/internal/netem"
	"repro/internal/oscillator"
	"repro/internal/rng"
	"repro/internal/timebase"
)

// ServerSpec bundles the two path directions and the server model that
// together realize one host-server environment.
type ServerSpec struct {
	Name           string
	Reference      string // "GPS" or "Atomic"
	DistanceMeters float64
	Forward        netem.PathConfig
	Backward       netem.PathConfig
	Server         netem.ServerConfig
}

// MinRTT returns the deterministic minimum round-trip time
// r = d> + d^ + d< implied by the spec (before any level shifts).
func (s ServerSpec) MinRTT() float64 {
	return s.Forward.MinDelay + s.Server.MinProc + s.Backward.MinDelay
}

// Asymmetry returns the path asymmetry Delta = d> - d<.
func (s ServerSpec) Asymmetry() float64 {
	return s.Forward.MinDelay - s.Backward.MinDelay
}

// ServerLoc models the laboratory-local stratum-1 server: 3 m away, two
// hops, 0.38 ms minimum RTT, ~50 µs path asymmetry (Table 2).
func ServerLoc() ServerSpec {
	return ServerSpec{
		Name:           "ServerLoc",
		Reference:      "GPS",
		DistanceMeters: 3,
		Forward: netem.PathConfig{
			MinDelay:            206 * timebase.Microsecond,
			Hops:                2,
			BaseQueueMean:       10 * timebase.Microsecond,
			DiurnalAmplitude:    0.3,
			DiurnalPeak:         15 * timebase.Hour,
			EpisodeMeanGap:      4 * timebase.Hour,
			EpisodeMeanDuration: 4 * timebase.Minute,
			EpisodeScale:        0.4 * timebase.Millisecond,
			EpisodeShape:        1.7,
		},
		Backward: netem.PathConfig{
			MinDelay:            156 * timebase.Microsecond,
			Hops:                2,
			BaseQueueMean:       8 * timebase.Microsecond,
			DiurnalAmplitude:    0.25,
			DiurnalPeak:         15 * timebase.Hour,
			EpisodeMeanGap:      5 * timebase.Hour,
			EpisodeMeanDuration: 4 * timebase.Minute,
			EpisodeScale:        0.35 * timebase.Millisecond,
			EpisodeShape:        1.7,
		},
		Server: netem.DefaultServer(),
	}
}

// ServerInt models the organization-internal stratum-1 server: 300 m,
// five hops, 0.89 ms minimum RTT, ~50 µs asymmetry, verifiably symmetric
// route (Table 2). The forward path is more heavily utilised than the
// backward one, which biases naive offset estimates negative (Figure 6).
func ServerInt() ServerSpec {
	return ServerSpec{
		Name:           "ServerInt",
		Reference:      "GPS",
		DistanceMeters: 300,
		Forward: netem.PathConfig{
			MinDelay:            461 * timebase.Microsecond,
			Hops:                5,
			BaseQueueMean:       28 * timebase.Microsecond,
			DiurnalAmplitude:    0.4,
			DiurnalPeak:         14 * timebase.Hour,
			EpisodeMeanGap:      2.5 * timebase.Hour,
			EpisodeMeanDuration: 5 * timebase.Minute,
			EpisodeScale:        0.8 * timebase.Millisecond,
			EpisodeShape:        1.6,
		},
		Backward: netem.PathConfig{
			MinDelay:            411 * timebase.Microsecond,
			Hops:                5,
			BaseQueueMean:       16 * timebase.Microsecond,
			DiurnalAmplitude:    0.3,
			DiurnalPeak:         14 * timebase.Hour,
			EpisodeMeanGap:      3.5 * timebase.Hour,
			EpisodeMeanDuration: 5 * timebase.Minute,
			EpisodeScale:        0.6 * timebase.Millisecond,
			EpisodeShape:        1.6,
		},
		Server: netem.DefaultServer(),
	}
}

// ServerExt models the remote stratum-1 server: ~1000 km, ~10 hops,
// 14.2 ms minimum RTT, ~500 µs asymmetry, atomic-clock reference
// (Table 2). Congestion is heavier and quality packets rarer.
func ServerExt() ServerSpec {
	spec := ServerSpec{
		Name:           "ServerExt",
		Reference:      "Atomic",
		DistanceMeters: 1e6,
		Forward: netem.PathConfig{
			MinDelay:            7341 * timebase.Microsecond,
			Hops:                10,
			BaseQueueMean:       110 * timebase.Microsecond,
			DiurnalAmplitude:    0.5,
			DiurnalPeak:         14 * timebase.Hour,
			EpisodeMeanGap:      70 * timebase.Minute,
			EpisodeMeanDuration: 8 * timebase.Minute,
			EpisodeScale:        2.2 * timebase.Millisecond,
			EpisodeShape:        1.5,
		},
		Backward: netem.PathConfig{
			MinDelay:            6841 * timebase.Microsecond,
			Hops:                10,
			BaseQueueMean:       85 * timebase.Microsecond,
			DiurnalAmplitude:    0.45,
			DiurnalPeak:         14 * timebase.Hour,
			EpisodeMeanGap:      90 * timebase.Minute,
			EpisodeMeanDuration: 8 * timebase.Minute,
			EpisodeScale:        1.8 * timebase.Millisecond,
			EpisodeShape:        1.5,
		},
		Server: netem.DefaultServer(),
	}
	// The atomic reference has slightly different residual wander.
	spec.Server.ClockWanderAmp = 1 * timebase.Microsecond
	return spec
}

// Gap is an interval during which no exchanges complete (loss of
// connectivity, trace-collection outage).
type Gap struct {
	From, To float64
}

// Scenario fully describes a trace to generate.
type Scenario struct {
	Name       string
	Oscillator oscillator.Config
	Host       netem.HostStampConfig
	Server     ServerSpec

	// PollPeriod is the NTP polling period in seconds (the paper uses
	// 16 for dense data and 64-256 as standard defaults).
	PollPeriod float64
	// PollJitterFrac dithers emission times by +-frac/2 of the period so
	// the trace does not beat against periodic model components.
	PollJitterFrac float64

	// Duration of the trace in seconds.
	Duration float64

	// LossProb is the per-exchange loss probability; Gaps are wholesale
	// outage windows.
	LossProb float64
	Gaps     []Gap

	// DAGJitter is the reference monitor's timestamping noise (1 sigma).
	DAGJitter float64

	Seed uint64
}

// Validate reports scenario configuration errors.
func (s Scenario) Validate() error {
	if !(s.PollPeriod > 0) {
		return fmt.Errorf("sim: PollPeriod must be positive")
	}
	if !(s.Duration > 0) {
		return fmt.Errorf("sim: Duration must be positive")
	}
	if s.LossProb < 0 || s.LossProb >= 1 {
		return fmt.Errorf("sim: LossProb %v outside [0,1)", s.LossProb)
	}
	if s.PollJitterFrac < 0 || s.PollJitterFrac >= 1 {
		return fmt.Errorf("sim: PollJitterFrac %v outside [0,1)", s.PollJitterFrac)
	}
	return nil
}

// Environment selects the temperature environment preset.
type Environment int

// Environments of the paper's Section 3.1.
const (
	Laboratory Environment = iota
	MachineRoom
)

// String implements fmt.Stringer using the paper's abbreviations.
func (e Environment) String() string {
	switch e {
	case Laboratory:
		return "Lab"
	case MachineRoom:
		return "MR"
	default:
		return fmt.Sprintf("Environment(%d)", int(e))
	}
}

// NewScenario assembles a standard scenario in the paper's terms, e.g.
// NewScenario(MachineRoom, ServerInt(), 16, 3*timebase.Week, seed) is the
// "MR-Int" dataset behind Figures 8, 9 and 12.
func NewScenario(env Environment, server ServerSpec, poll, duration float64, seed uint64) Scenario {
	var osc oscillator.Config
	switch env {
	case Laboratory:
		osc = oscillator.Laboratory()
	default:
		osc = oscillator.MachineRoom()
	}
	return Scenario{
		Name:           fmt.Sprintf("%s-%s", env, server.Name),
		Oscillator:     osc,
		Host:           netem.DefaultHostStamp(),
		Server:         server,
		PollPeriod:     poll,
		PollJitterFrac: 0.02,
		Duration:       duration,
		LossProb:       0.0015,
		DAGJitter:      100 * timebase.Nanosecond,
		Seed:           seed,
	}
}

// Exchange is one completed (or lost) NTP request/response: the record
// a capture file stores, nine fields in 64 bytes.
type Exchange struct {
	Seq uint32
	// Lost marks exchanges that never completed; their stamps are zero
	// and must not be consumed by the algorithms.
	Lost bool

	// Raw data visible to the synchronization algorithm.
	Ta, Tf uint64  // host counter stamps
	Tb, Te float64 // server payload stamps, seconds

	// Reference data visible only to the evaluation.
	Tg             float64 // corrected DAG stamp of the response arrival
	TrueTa, TrueTf float64 // oracle departure and arrival times
}

// Truth is the rest of the generator's ground truth for one exchange,
// which no capture stores: the streams hand it out beside the record
// (Stream.Truth, MultiStream.Truth). A lost exchange's Truth is zero.
type Truth struct {
	TrueTb, TrueTe float64 // oracle server arrival and departure times
	// TfCorr is the "corrected Tf" of the paper's Section 2.4: the
	// receive stamp with the DAG-detectable interrupt-latency side modes
	// and scheduling excursions removed, leaving only the irreducible
	// ~5 µs mode. Used by the stability analysis (Figure 3).
	TfCorr uint64
}

// RTTTrue returns the oracle round-trip time r_i = tf - ta.
func (e Exchange) RTTTrue() float64 { return e.TrueTf - e.TrueTa }

// Trace is a generated dataset plus everything needed to evaluate
// estimators against ground truth.
type Trace struct {
	Scenario  Scenario
	Exchanges []Exchange

	// Osc is the oscillator realization that produced the host stamps;
	// experiments use it for oracle rate references.
	Osc *oscillator.Oscillator
}

// Generate produces the deterministic trace described by the scenario,
// materialized in memory: a collector over the pull-based Stream, which
// emits the identical exchange sequence one record at a time for
// workloads too long to hold resident.
func Generate(sc Scenario) (*Trace, error) {
	st, err := NewStream(sc)
	if err != nil {
		return nil, err
	}
	exchanges := make([]Exchange, 0, st.Len())
	for {
		ex, ok := st.Next()
		if !ok {
			break
		}
		exchanges = append(exchanges, ex)
	}
	return &Trace{Scenario: sc, Exchanges: exchanges, Osc: st.Osc()}, nil
}

// draw is what stage 1 fixes for one exchange before any path is
// queried: its emission slot and the draws from the sources every
// server shares — the host's send lead and receive lags and the DAG
// monitor's noise. None of them depends on a path value, so stage 1
// can run ahead of stage 2 in emission order.
type draw struct {
	t        float64 // emission instant, true time
	deadline float64 // the same server's next emission (+Inf: none)

	lead              float64 // host.SendLead
	lagBase, lagExtra float64 // host.RecvLagParts
	dagNoise          float64 // the monitor's timestamping noise
}

// drawShared takes one completed exchange's draws from the shared host
// and DAG sources, each source in the order the exchange consumes it.
func (d *draw) drawShared(host *netem.HostStamp, dagSrc *rng.Source, dagJitter float64) {
	d.lead = host.SendLead()
	d.dagNoise = dagSrc.Normal(0, dagJitter)
	d.lagBase, d.lagExtra = host.RecvLagParts()
}

// stamp is stage 2: it realizes the exchange whose stage-1 draws are d
// through one server's path and server models, reading the counter
// from osc. It touches nothing but those models and osc, so each
// server's exchanges can be stamped by whichever worker owns the
// server. Both generators run this exact sequence, so single-server
// and multi-server traces always model stamping identically — the
// ensemble experiments compare clocks across the two.
//
// A reply the host would receive at or after d.deadline is lost: the
// client has sent that server its next request and no longer waits
// for this one. The server's departure is checked before the backward
// path is queried, so a delay longer than the polling period never
// queries a path backwards in time, and the same server's counter
// stamps stay in order. It returns the exchange's Truth, zero for a
// lost one.
func stamp(ex *Exchange, d *draw, osc *oscillator.Oscillator, fwd, back *netem.Path, srv *netem.Server) Truth {
	// Host stamps Ta slightly before the true departure.
	ta := d.t + d.lead
	tb := ta + fwd.Delay(ta)
	tbStamp := srv.StampArrival(tb)
	te := tb + srv.Turnaround()
	if te >= d.deadline {
		ex.Lost = true
		return Truth{}
	}
	teStamp := srv.StampDeparture(te)
	tf := te + back.Delay(te)
	// The host's driver stamp follows the arrival by the interrupt
	// latency (plus rare scheduling excursions); the corrected stamp
	// keeps only the irreducible base latency.
	recv := tf + d.lagBase + d.lagExtra
	if recv >= d.deadline {
		ex.Lost = true
		return Truth{}
	}
	ex.Ta, ex.TrueTa = osc.ReadTSC(d.t), ta
	ex.Tb, ex.Te = tbStamp, teStamp
	ex.TrueTf = tf
	// The DAG taps the wire just before the host interface; its
	// corrected stamp is true arrival plus reference jitter.
	ex.Tg = tf + d.dagNoise
	// Most exchanges have no excess lag, and then both stamps read the
	// same instant (x+0 == x, and a repeated read draws nothing), so
	// the counter is read once.
	tr := Truth{TrueTb: tb, TrueTe: te, TfCorr: osc.ReadTSC(tf + d.lagBase)}
	ex.Tf = tr.TfCorr
	if d.lagExtra != 0 {
		ex.Tf = osc.ReadTSC(recv)
	}
	return tr
}

// Completed returns the non-lost exchanges.
func (tr *Trace) Completed() []Exchange {
	out := make([]Exchange, 0, len(tr.Exchanges))
	for _, e := range tr.Exchanges {
		if !e.Lost {
			out = append(out, e)
		}
	}
	return out
}

// MinObservedRTT returns the smallest oracle RTT among completed
// exchanges, used to validate Table 2 style characterizations.
func (tr *Trace) MinObservedRTT() float64 {
	m := math.Inf(1)
	for _, e := range tr.Exchanges {
		if !e.Lost && e.RTTTrue() < m {
			m = e.RTTTrue()
		}
	}
	return m
}
