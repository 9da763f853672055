package sim

import (
	"fmt"
	"math"

	"repro/internal/netem"
	"repro/internal/oscillator"
	"repro/internal/timebase"
)

// MultiScenario fully describes a trace to generate: ONE host (one
// oscillator, one timestamping model) polling one or more NTP servers
// over independent network paths. Sharing the oscillator is the point —
// the per-server engines of an ensemble then calibrate the same
// counter, making their clocks comparable, exactly as on a real host.
//
// Each server is polled every PollPeriod with its schedule staggered by
// k·PollPeriod/N, the interleaving a MultiLive deployment produces:
// server k's poll i goes out at (i + 1/2 + k/N)·PollPeriod plus jitter,
// the half-period base offset keeping the first emission positive for
// any valid jitter fraction.
type MultiScenario struct {
	Name       string
	Oscillator oscillator.Config
	Host       netem.HostStampConfig
	Servers    []ServerSpec

	// PollPeriod is the per-server polling period in seconds (the paper
	// uses 16 for dense data and 64-256 as standard defaults);
	// PollJitterFrac dithers each emission by ±frac/2 of the period so
	// the trace does not beat against periodic model components.
	PollPeriod     float64
	PollJitterFrac float64

	// Duration of the trace in seconds.
	Duration float64

	// LossProb is the per-exchange loss probability (independent per
	// server); Gaps are wholesale outage windows affecting every server.
	LossProb float64
	Gaps     []Gap

	// Outages and Partitions are the fault schedule: per-server
	// blackhole/flaky windows and subset-wide splits (see faults.go).
	// Empty schedules leave the trace untouched.
	Outages    []ServerOutage
	Partitions []Partition

	// DAGJitter is the reference monitor's timestamping noise (1 sigma).
	DAGJitter float64

	Seed uint64
}

// Validate reports scenario configuration errors.
func (s MultiScenario) Validate() error {
	if len(s.Servers) == 0 {
		return fmt.Errorf("sim: MultiScenario needs at least one server")
	}
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
	return s.validateFaults()
}

// NewMultiScenario assembles a standard scenario, e.g. three
// ServerInt-class upstreams polled every 16 s from a machine-room host.
// One server is named after its environment and server ("MR-ServerInt"),
// more after their count ("MR-ensemble3").
func NewMultiScenario(env Environment, servers []ServerSpec, poll, duration float64, seed uint64) MultiScenario {
	osc := oscillator.MachineRoom()
	if env == Laboratory {
		osc = oscillator.Laboratory()
	}
	name := fmt.Sprintf("%s-ensemble%d", env, len(servers))
	if len(servers) == 1 {
		name = fmt.Sprintf("%s-%s", env, servers[0].Name)
	}
	return MultiScenario{
		Name:           name,
		Oscillator:     osc,
		Host:           netem.DefaultHostStamp(),
		Servers:        servers,
		PollPeriod:     poll,
		PollJitterFrac: 0.02,
		Duration:       duration,
		LossProb:       0.0015,
		DAGJitter:      100 * timebase.Nanosecond,
		Seed:           seed,
	}
}

// ColludingHonest is the number of honest servers in a colluding
// scenario: servers [0, ColludingHonest) are truthful, servers
// [ColludingHonest, len(Servers)) collude on the injected offset.
const ColludingHonest = 3

// serverNearQuiet models an exceptionally clean nearby stratum-1
// server: ServerLoc's two-hop machine-room paths with a quarter of the
// queueing noise and congestion episodes four times rarer. Its point
// errors sit near the timestamping floor, so a trust scorer driven by
// path quality hands it the highest combining weight — which is
// exactly what makes it the right disguise for a colluding server.
func serverNearQuiet() ServerSpec {
	spec := ServerLoc()
	spec.Name = "ServerNearQuiet"
	for _, p := range []*netem.PathConfig{&spec.Forward, &spec.Backward} {
		p.BaseQueueMean /= 4
		p.EpisodeScale /= 4
		p.EpisodeMeanGap *= 4
	}
	return spec
}

// NewColludingScenario builds the selection stage's adversarial case:
// five upstream servers, of which the last two collude — their server
// clocks agree on the same wrong offset for the entire trace, and they
// sit on unusually clean near-host paths, so a quality-driven trust
// scorer hands the pair more than half the total combining weight. A
// weighted median alone then follows the lie (its breakdown point is
// weight-based); interval-intersection selection rejects the pair on
// count, because their correctness intervals never reach the honest
// majority's. The honest servers are ColludingHonest ServerInt-class
// upstreams; offset 0 yields the all-good control with identical
// random draws.
func NewColludingScenario(env Environment, offset, poll, duration float64, seed uint64) MultiScenario {
	servers := []ServerSpec{
		ServerInt(), ServerInt(), ServerInt(),
		serverNearQuiet(), serverNearQuiet(),
	}
	for k := ColludingHonest; k < len(servers); k++ {
		servers[k].Server.Faults = []netem.FaultWindow{
			// Unbounded: the tail emissions overrun Duration by up to a
			// polling period, and the lie must cover them too.
			{From: 0, To: math.Inf(1), Offset: offset},
		}
	}
	sc := NewMultiScenario(env, servers, poll, duration, seed)
	sc.Name = fmt.Sprintf("%s-collude%dof%d", env, len(servers)-ColludingHonest, len(servers))
	return sc
}

// NewAsymmetricScenario builds the path-asymmetry correction's test
// case: one ServerInt-class upstream per entry of extraForward, with
// entry k added to server k's forward-path minimum delay. An extra
// forward delay is invisible to any single-path filter — the engine
// splits the minimum RTT evenly, so server k's clock silently gains a
// bias of −extraForward[k]/2 (paper §2.3) while staying healthy by
// every quality signal. Differential entries make the per-server biases
// disagree, which is exactly what the ensemble's asymmetry hints can
// see and the damped correction can remove; a uniform extraForward is
// the common-mode control no client-side algorithm can detect. All
// zeros yields the symmetric control with identical random draws.
func NewAsymmetricScenario(env Environment, extraForward []float64, poll, duration float64, seed uint64) MultiScenario {
	servers := make([]ServerSpec, len(extraForward))
	for k := range servers {
		servers[k] = ServerInt()
		servers[k].Forward.MinDelay += extraForward[k]
	}
	sc := NewMultiScenario(env, servers, poll, duration, seed)
	sc.Name = fmt.Sprintf("%s-asym%d", env, len(servers))
	return sc
}
