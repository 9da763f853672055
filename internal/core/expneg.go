package core

import "math"

// expNeg returns exp(-x) for x >= 0, accurate to ~1.5e-13 relative
// error.
//
// The offset filter evaluates one Gaussian weight exp(-(E^T/E)²) per
// surviving window record per packet, which makes the exponential the
// single hottest operation in the engine (≈45% of Process time with
// math.Exp). This implementation is the standard table-driven scheme:
//
//	exp(-x) = 2^(-k/256) · exp(-r),  k = round(x·256/ln2),
//	                                 r = x − k·(ln2/256), |r| ≤ ln2/512
//
// with 2^(-k/256) split into a 256-entry mantissa table of 2^(-j/256)
// and a 1024-entry exact power-of-two table, and exp(-r) a degree-3
// polynomial in Estrin form (|r| ≤ 0.00136 keeps the truncation error
// r⁴/24 below 1.4e-13 relative). The rounding to k uses the
// shift-by-1.5·2^52 trick, which yields both the integer (in the low
// mantissa bits) and its float64 value (by subtracting the shift back)
// without int↔float conversion instructions. Unlike math.Exp the whole
// evaluation needs no division and no special-case branches on the hot
// path, and its short dependency chains pipeline well across loop
// iterations.
//
// The weighted offset estimate tolerates far larger weight errors than
// this: a relative weight error η moves the weighted mean by at most
// η·spread(θ) ≈ 1.4e-13 · (a few ms in any realistic window), under a
// femtosecond; against math.Exp weights θ̂ moved by ~1e-16 s in
// practice, the per-weight errors largely cancelling in the weighted
// mean.
//
// The offset filter does not call this function: the call is most of
// the loop's cost and the body exceeds the compiler's inlining budget.
// The body is written out twice more — in offsetScanLoop (offset.go)
// and, four records wide, in offsetScanAVX2 (offset_amd64.s) — and the
// three are held together by == rather than by this comment:
// TestScanWeightIsExpNeg pins the loop's weight to expNeg bit for bit
// over this file's test grid, TestOffsetScanKernelMatchesLoop and
// FuzzOffsetScan pin the kernel to the loop. The float64() conversions
// forbid fused multiply-adds, so the bits are the same on every
// platform (see offsetScanLoop).
func expNeg(x float64) float64 {
	if x > 680 {
		// exp(-680) ≈ 5e-296: zero for every caller's purpose, and
		// stopping here bounds the scale-table index.
		return 0
	}
	if !(x >= 0) {
		// Negative or NaN: out of the hot path's domain, delegate.
		return math.Exp(-x)
	}
	t := float64(x*invLn2x256) + expShift
	k := int(math.Float64bits(t) & (1<<32 - 1))
	kf := t - expShift
	// Cody–Waite two-term reduction: ln2Hi256's mantissa has enough
	// trailing zeros that kf*ln2Hi256 is exact for k < 2^19.
	r := (x - float64(kf*ln2Hi256)) - float64(kf*ln2Lo256)
	// exp(-r) = 1 − r + r²/2 − r³/6 in Estrin form, |r| ≤ ln2/512.
	r2 := r * r
	q := (1 - r) + float64(r2*(0.5-float64(r*(1.0/6))))
	return expNegTab[k&255] * expScaleTab[(k>>8)&1023] * q
}

const (
	invLn2x256 = 256 / math.Ln2 // 3.6932993046757463e+02
	// ln2/256 split so the high part times any |k| < 2^19 is exact:
	// ln2Hi256 = Ln2Hi/256 with Ln2Hi's low 32 mantissa bits zero.
	ln2Hi256 = 6.93147180369123816490e-01 / 256
	ln2Lo256 = 1.90821492927058770002e-10 / 256
	// expShift: adding it forces a float64's low mantissa bits to hold
	// round-to-nearest(x) for 0 ≤ x < 2^31.
	expShift = 1.5 * (1 << 52)
)

// expNegTab[j] = 2^(-j/256), j = 0..255.
var expNegTab = func() (t [256]float64) {
	for j := range t {
		t[j] = math.Exp2(-float64(j) / 256)
	}
	return
}()

// expScaleTab[j] = 2^(-j): the exponent part of the reduction. Sized
// and masked to 1024 so the compiler drops the bounds check; entries
// past the x ≤ 680 guard (k>>8 ≤ 981) are never read.
var expScaleTab = func() (t [1024]float64) {
	for j := range t {
		t[j] = math.Exp2(-float64(j))
	}
	return
}()
