package netem

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/timebase"
)

// SideMode is a discrete extra-latency mode of the host receive
// timestamping (interrupt latency quantization): with probability Prob
// the receive stamp is delayed by an additional Offset.
type SideMode struct {
	Offset float64
	Prob   float64
}

// HostStampConfig models the host's driver-level TSC timestamping noise
// as characterized in Section 2.4 of the paper: a dominant mode ~5 µs
// wide, side modes at +10 and +31 µs, and ~1-in-10,000 scheduling errors
// up to ~1 ms.
type HostStampConfig struct {
	// SendLeadMean: the send stamp Ta is taken this long (exponential
	// mean) before the packet actually leaves the interface.
	SendLeadMean float64

	// RecvBase and RecvJitter shape the dominant interrupt-latency mode:
	// latency = RecvBase + |N(0, RecvJitter)|.
	RecvBase   float64
	RecvJitter float64

	// SideModes are the discrete extra interrupt-latency modes.
	SideModes []SideMode

	// SchedProb is the probability of a scheduling error, which adds a
	// Pareto(SchedScale, SchedShape) delay to the receive stamp.
	SchedProb  float64
	SchedScale float64
	SchedShape float64
}

// DefaultHostStamp returns the driver-timestamping noise model fitted to
// the paper's measured histogram (delta = 15 µs worst-case nominal).
func DefaultHostStamp() HostStampConfig {
	return HostStampConfig{
		SendLeadMean: 2 * timebase.Microsecond,
		RecvBase:     1.5 * timebase.Microsecond,
		RecvJitter:   1.2 * timebase.Microsecond,
		SideModes: []SideMode{
			{Offset: 10 * timebase.Microsecond, Prob: 0.02},
			{Offset: 31 * timebase.Microsecond, Prob: 0.008},
		},
		SchedProb:  1e-4,
		SchedScale: 0.3 * timebase.Millisecond,
		SchedShape: 1.8,
	}
}

// UserLevelHostStamp returns a noisier model representative of user-space
// gettimeofday-style timestamping, for the ablation comparing driver vs
// user-level stamping (Section 2.2.1 notes the algorithms still work,
// with higher variance).
func UserLevelHostStamp() HostStampConfig {
	return HostStampConfig{
		SendLeadMean: 15 * timebase.Microsecond,
		RecvBase:     10 * timebase.Microsecond,
		RecvJitter:   12 * timebase.Microsecond,
		SideModes: []SideMode{
			{Offset: 50 * timebase.Microsecond, Prob: 0.05},
			{Offset: 120 * timebase.Microsecond, Prob: 0.02},
		},
		SchedProb:  1e-3,
		SchedScale: 0.5 * timebase.Millisecond,
		SchedShape: 1.6,
	}
}

// Validate reports configuration errors.
func (c HostStampConfig) Validate() error {
	if c.SendLeadMean < 0 || c.RecvBase < 0 || c.RecvJitter < 0 {
		return fmt.Errorf("netem: negative host stamp parameter")
	}
	total := 0.0
	for _, m := range c.SideModes {
		if m.Prob < 0 || m.Offset < 0 {
			return fmt.Errorf("netem: invalid side mode %+v", m)
		}
		total += m.Prob
	}
	if total+c.SchedProb > 1 {
		return fmt.Errorf("netem: side mode + scheduling probabilities exceed 1")
	}
	return nil
}

// HostStamp draws host timestamping latencies.
type HostStamp struct {
	cfg HostStampConfig
	src *rng.Source
}

// NewHostStamp constructs the host timestamping model.
func NewHostStamp(cfg HostStampConfig, src *rng.Source) (*HostStamp, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &HostStamp{cfg: cfg, src: src}, nil
}

// SendLead returns how long before the true departure the send stamp is
// taken (Ta precedes ta; always >= 0).
func (h *HostStamp) SendLead() float64 {
	return h.src.Exponential(h.cfg.SendLeadMean)
}

// RecvLag returns how long after the true arrival the receive stamp is
// taken (Tf follows tf; always >= 0).
func (h *HostStamp) RecvLag() float64 {
	base, extra := h.RecvLagParts()
	return base + extra
}

// RecvLagParts decomposes the receive stamping latency into the
// irreducible base mode and the correctable excess (interrupt-latency
// side modes and scheduling errors). The paper's Section 2.4 shows the
// excess is reliably detectable against the DAG reference and corrects
// it for the stability analysis of Figure 3; the base mode (~5 µs wide)
// remains.
//
// Known model bug, kept because fixing it moves every digit of every
// trace: the side-mode loop breaks without taking the firing mode's
// mass out of u, so u < SchedProb also fires inside each side-mode
// bucket. With DefaultHostStamp the scheduling-error rate is therefore
// 3e-4, not the documented ~1-in-10,000, and two thirds of those
// errors land on top of a side mode. ROADMAP item 4 queues the fix.
func (h *HostStamp) RecvLagParts() (base, extra float64) {
	base = h.cfg.RecvBase + h.src.TruncNormalPos(0, h.cfg.RecvJitter)
	u := h.src.Float64()
	for _, m := range h.cfg.SideModes {
		if u < m.Prob {
			extra += m.Offset
			break
		}
		u -= m.Prob
	}
	if u < h.cfg.SchedProb && h.cfg.SchedProb > 0 {
		extra += h.src.Pareto(h.cfg.SchedScale, h.cfg.SchedShape)
	}
	return base, extra
}

// FaultWindow is an interval during which the server's clock reads wrong
// by Offset seconds (Figure 11b injects 150 ms for a few minutes).
type FaultWindow struct {
	From, To float64
	Offset   float64
}

// ServerConfig models a stratum-1 NTP server: its processing delay
// (d^ = minimum + noise with rare scheduling spikes), its timestamping
// errors, and its (nominally GPS-disciplined) clock including injectable
// faults.
type ServerConfig struct {
	// MinProc is the minimum processing (turnaround) time d^.
	MinProc float64
	// ProcMean is the mean of the exponential variable component of the
	// turnaround time.
	ProcMean float64
	// SchedProb/SchedScale/SchedShape give rare millisecond-scale
	// scheduling spikes in turnaround time.
	SchedProb  float64
	SchedScale float64
	SchedShape float64

	// StampNoise is the standard deviation of the server's per-stamp
	// timestamping error (it is a PC: gettimeofday-quality stamps).
	StampNoise float64
	// TeOutlierProb/TeOutlierScale model the rare large errors observed
	// in the departure stamps, up to ~1 ms (Section 4.2).
	TeOutlierProb  float64
	TeOutlierScale float64

	// ClockWanderAmp and ClockWanderPeriod describe the small residual
	// wander of the GPS-disciplined server clock (microsecond scale).
	ClockWanderAmp    float64
	ClockWanderPeriod float64

	// Faults is the schedule of injected server clock errors.
	Faults []FaultWindow
}

// DefaultServer returns a GPS-disciplined stratum-1 server model.
func DefaultServer() ServerConfig {
	return ServerConfig{
		MinProc:           18 * timebase.Microsecond,
		ProcMean:          9 * timebase.Microsecond,
		SchedProb:         5e-4,
		SchedScale:        0.25 * timebase.Millisecond,
		SchedShape:        1.7,
		StampNoise:        4 * timebase.Microsecond,
		TeOutlierProb:     2e-4,
		TeOutlierScale:    0.3 * timebase.Millisecond,
		ClockWanderAmp:    1.5 * timebase.Microsecond,
		ClockWanderPeriod: 3 * timebase.Hour,
	}
}

// Validate reports configuration errors.
func (c ServerConfig) Validate() error {
	if c.MinProc < 0 || c.ProcMean < 0 || c.StampNoise < 0 {
		return fmt.Errorf("netem: negative server parameter")
	}
	for _, f := range c.Faults {
		if f.To < f.From {
			return fmt.Errorf("netem: fault window [%v,%v] reversed", f.From, f.To)
		}
	}
	return nil
}

// Server draws server-side delays and timestamp errors.
type Server struct {
	cfg ServerConfig
	src *rng.Source
}

// NewServer constructs the server model.
func NewServer(cfg ServerConfig, src *rng.Source) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, src: src}, nil
}

// Turnaround draws the server delay d^(i) = te - tb for one request.
func (s *Server) Turnaround() float64 {
	d := s.cfg.MinProc + s.src.Exponential(s.cfg.ProcMean)
	if s.cfg.SchedProb > 0 && s.src.Bool(s.cfg.SchedProb) {
		d += s.src.Pareto(s.cfg.SchedScale, s.cfg.SchedShape)
	}
	return d
}

// ClockOffset returns the server clock's error at true time t, including
// residual GPS-discipline wander and any active fault window.
func (s *Server) ClockOffset(t float64) float64 {
	off := 0.0
	if s.cfg.ClockWanderAmp > 0 && s.cfg.ClockWanderPeriod > 0 {
		off = s.cfg.ClockWanderAmp * math.Sin(2*math.Pi*t/s.cfg.ClockWanderPeriod)
	}
	for _, f := range s.cfg.Faults {
		if t >= f.From && t < f.To {
			off += f.Offset
		}
	}
	return off
}

// StampArrival returns Tb for a packet truly arriving at tb: the server
// clock reading plus a non-negative stamping latency (the server stamps
// strictly after the packet arrives).
func (s *Server) StampArrival(tb float64) float64 {
	return tb + s.ClockOffset(tb) + s.src.TruncNormalPos(s.cfg.StampNoise, s.cfg.StampNoise/2)
}

// StampDeparture returns Te for a packet truly departing at te. The
// departure stamp is taken just before the send, but rare large positive
// errors occur as observed in the paper's reference data.
func (s *Server) StampDeparture(te float64) float64 {
	e := -s.src.TruncNormalPos(s.cfg.StampNoise/2, s.cfg.StampNoise/2)
	if s.cfg.TeOutlierProb > 0 && s.src.Bool(s.cfg.TeOutlierProb) {
		e += s.src.Pareto(s.cfg.TeOutlierScale, 2.2)
	}
	return te + s.ClockOffset(te) + e
}
