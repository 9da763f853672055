package ensemble

// First-order path-asymmetry correction: the promotion of the selection
// sweep's asymmetry hints from diagnostics to an offset correction.
//
// The paper's §2.3 identifies path asymmetry as the irreducible error
// floor of one-way filtering: a single client/server path cannot
// distinguish a clock offset from an asymmetric split of the minimum
// RTT, so every per-server clock carries a constant bias of −Δ_k/2 the
// engine can never see. The ensemble can see it, partially: a server
// that is systematically early or late against the selected set's
// midpoint — while healthy by every single-path quality signal — is
// exactly what an uncalibrated asymmetry looks like from outside
// (G-SINC makes this cross-path comparison its headline precision
// argument). The correction transfers the ensemble consensus onto each
// server: the combined clock stops inheriting whichever member biases
// happen to hold the median and lands on the center of the selected
// set's agreement instead. The common-mode asymmetry shared by every
// path remains unobservable — this is a redistribution of the
// *differential* asymmetry, not a repeal of the error floor.
//
// Stability is the design constraint (HyNTP's evaluation shows
// undamped cross-node corrections oscillating): the tracker is a plain
// EWMA of the raw hint — a contraction with gain asymAlpha, not an
// integrator on the corrected residual, so it converges to the clamped
// hint level and cannot wind up — and the applied correction is capped
// at asymClampFrac of the server's correctness-interval half-width, so
// a correction can re-center a server within its own claim but never
// push it across it. Selection itself always runs on raw clocks: the
// correction cannot flip a vote, manufacture a falseticker, or feed
// back into the hint that drives it.
//
// The gate: a server learns and applies its correction only while it
// is selected and carries no meaningful event penalty. An unselected
// server's hint measures its distance from a set it is not part of (a
// falseticker's hint is the lie itself — correcting it would launder
// the lie into the vote), and a penalized server's recent sanity
// events mean its clock, and therefore its hint, is not currently
// evidence of path asymmetry. While the gate is closed the tracker
// freezes and the applied correction is zero.

// asymPenaltyGateFrac closes the correction gate while a server's
// decaying event penalty exceeds this fraction of its noise scale: one
// sanity event freezes that server's correction for the few tens of
// exchanges the penalty takes to decay back under it.
const asymPenaltyGateFrac = 0.5

// updateAsymCorrection advances every server's damped correction after
// one selection sweep. Called from combine (after updateSelection,
// before publish) only while Config.AsymCorrection is set, so the
// disabled path does not even touch the fields: corr stays identically
// zero and the corrected and uncorrected combiners are bit-identical
// (x − 0 is the identity for every float, including ±0 and NaN).
func (e *Ensemble) updateAsymCorrection() {
	for k := range e.members {
		m := &e.members[k]
		if !m.ready {
			m.corr = 0
			continue
		}
		ns := m.noiseScale()
		open := m.selected && m.penalty <= asymPenaltyGateFrac*ns
		if open {
			m.corrEwma += asymAlpha * (m.asym - m.corrEwma)
		}
		// Clamp the tracker itself, not just the applied value: a hint
		// transient larger than the clamp must not bank an excess the
		// server would keep serving long after the transient ends.
		clamp := asymClampFrac * agreementFactor * ns
		if m.corrEwma > clamp {
			m.corrEwma = clamp
		} else if m.corrEwma < -clamp {
			m.corrEwma = -clamp
		}
		if open {
			m.corr = m.corrEwma
		} else {
			m.corr = 0
		}
	}
}
