package core

// Server-change detection — the extension the paper sketches in
// Section 2.3: "server identity information which we plan to use as part
// of route change (level shift) detection in the future".
//
// The NTP payload carries the server's stratum and reference identifier.
// A change in either is explicit evidence that the packets now traverse
// a different server (DNS pool rotation, failover), after which the old
// minimum RTT r̂ is meaningless: unlike congestion-ambiguous upward level
// shifts, the filter can re-base immediately instead of waiting out the
// detection window T_s.

// Identity is the server identity data of one exchange. Zero values
// mean "unknown" and disable the check for that exchange.
type Identity struct {
	RefID   uint32
	Stratum uint8
}

// valid reports whether the identity carries usable information.
func (id Identity) valid() bool { return id.RefID != 0 && id.Stratum != 0 }

// ObserveIdentity feeds the server identity seen on the most recent
// exchange. It must be called after Process for that exchange. It
// returns true when a server change was detected and the minimum-RTT
// filter was re-based.
//
// Reaction on change: r̂ restarts from the RTT of the current exchange,
// point errors of the history are reassessed against it (they will be
// re-tightened as new minima arrive), and the rate pair's quality is
// recomputed. The rate and offset estimates themselves are kept — the
// "local clock is good" principle: they remain valid until contradicted
// by data, and the sanity checks bound any damage if the new server's
// asymmetry differs.
func (s *Sync) ObserveIdentity(id Identity) bool {
	if !id.valid() {
		return false
	}
	if !s.identKnown {
		s.ident = id
		s.identKnown = true
		s.publish()
		return false
	}
	if id == s.ident {
		return false
	}
	s.ident = id
	if s.hist.Len() == 0 {
		s.publish()
		return true
	}
	// Re-base the minimum from the current packet only. The r̂ deque is
	// left untouched: the re-base is recorded in lastShiftSeq alone,
	// and every consumer reads the deque through a suffix query that
	// respects it (r̂ at slides) or deliberately ignores it (the
	// level-shift window r̂_l, which keeps spanning pre-rebase packets
	// for the next T_s packets, as a plain scan of that window would —
	// TestEngineGoldenDigests/identity-rebase-congestion pins it).
	last := s.hist.Back()
	s.rHat = last.rtt
	s.lastShiftSeq = last.seq
	s.scan.Back().pointErr = 0
	// The re-base revised a point error the local-rate argmin trackers
	// already cached (the newest record is always in the near window).
	s.rebuildLocalMinima()
	if s.havePair {
		if _, qual, ok := s.pairEstimate(&s.pairJ, &s.pairI); ok {
			s.pQual = qual
		}
	}
	s.publish()
	return true
}
