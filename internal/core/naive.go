package core

import (
	"fmt"
	"math"
)

// NaiveRatePair computes the naive per-pair rate estimates of equation
// (17) from two exchanges j (earlier) and i (later): the forward-path
// estimate (Tb differences over Ta differences), the backward-path
// estimate (Te over Tf), and their average. These are the estimators of
// Figure 5, accurate only when queueing is small relative to the baseline
// Δ(TSC).
func NaiveRatePair(j, i Input) (fwd, back, avg float64, err error) {
	if i.Ta <= j.Ta || i.Tf <= j.Tf {
		return 0, 0, 0, fmt.Errorf("core: pair not increasing")
	}
	fwd = (i.Tb - j.Tb) / float64(i.Ta-j.Ta)
	back = (i.Te - j.Te) / float64(i.Tf-j.Tf)
	avg = (fwd + back) / 2
	if math.IsNaN(avg) || math.IsInf(avg, 0) || avg <= 0 {
		return 0, 0, 0, fmt.Errorf("core: degenerate pair estimate")
	}
	return fwd, back, avg, nil
}

// NaiveTheta computes the naive per-packet offset estimate of equation
// (19) for an exchange under the clock C(T) = p·T + c:
//
//	θ̂_i = (C(Ta)+C(Tf))/2 − (Tb+Te)/2
//
// It implicitly assumes a symmetric path (Δ = 0) and carries the raw
// network noise (q← − q→)/2 that Figure 6 exhibits.
func NaiveTheta(in Input, p, c float64) float64 {
	ca := float64(float64(in.Ta)*p) + c
	cf := float64(float64(in.Tf)*p) + c
	return float64((ca+cf)/2) - float64((in.Tb+in.Te)/2)
}

// RTT computes the measured round-trip time of an exchange under period
// estimate p. Because both stamps come from the same counter, no offset
// knowledge is needed — the foundation of the RTT-based filtering
// approach (Section 5.1).
func RTT(in Input, p float64) float64 {
	return float64(in.Tf-in.Ta) * p
}
