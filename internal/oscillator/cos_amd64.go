package oscillator

import (
	"math"

	"repro/internal/cpuid"
)

// cosKernel runs the AVX2 kernel over q's four lanes where the CPU has
// AVX2, and otherwise reports no lane done.
func cosKernel(t float64, q *quad) (c [4]float64, done int) {
	if !cpuid.AVX2 {
		return c, 0
	}
	return cos4AVX2(t, q)
}

// cos4AVX2 sets c[i] to math.Cos(float64(q.omega[i]*t)+q.phase[i]), bit
// for bit, for each lane i whose argument is finite and below 2²⁹ in
// magnitude, and sets bit i of done for exactly those lanes; c is
// unspecified in the others. Past 2²⁹ math.Cos reduces the argument
// with Payne–Hanek, which the kernel does not.
//
//go:noescape
func cos4AVX2(t float64, q *quad) (c [4]float64, done int)

// cosK is the kernel's constant table, one row of four equal lanes per
// constant so each is a memory operand; the K_* offsets in
// cos_amd64.s index it in this order. The values are math.Cos's own:
// its domain bound (reduceThreshold), its Cody–Waite split of π/4 and
// its two polynomials (math/sin.go's _sin and _cos), the integer rows
// as lane bits.
var cosK = [...][4]float64{
	lanes(math.Float64frombits(1<<63 - 1)), // |x|
	lanes(1 << 29),
	lanes(4 / math.Pi),
	lanes(math.Float64frombits(1<<32 | 1)), // int32 1 in every dword
	lanes(math.Float64frombits(7<<32 | 7)), // int32 7 in every dword
	lanes(7.85398125648498535156e-1),       // PI4A 0x3fe921fb40000000
	lanes(3.77489470793079817668e-8),       // PI4B 0x3e64442d00000000
	lanes(2.69515142907905952645e-15),      // PI4C 0x3ce8469898cc5170
	lanes(1.58962301576546568060e-10),      // _sin[0] 0x3de5d8fd1fd19ccd
	lanes(-2.50507477628578072866e-8),      // _sin[1] 0xbe5ae5e5a9291f5d
	lanes(2.75573136213857245213e-6),       // _sin[2] 0x3ec71de3567d48a1
	lanes(-1.98412698295895385996e-4),      // _sin[3] 0xbf2a01a019bfdf03
	lanes(8.33333333332211858878e-3),       // _sin[4] 0x3f8111111110f7d0
	lanes(-1.66666666666666307295e-1),      // _sin[5] 0xbfc5555555555548
	lanes(-1.13585365213876817300e-11),     // _cos[0] 0xbda8fa49a0861a9b
	lanes(2.08757008419747316778e-9),       // _cos[1] 0x3e21ee9d7b4e3f05
	lanes(-2.75573141792967388112e-7),      // _cos[2] 0xbe927e4f7eac4bc6
	lanes(2.48015872888517045348e-5),       // _cos[3] 0x3efa01a019c844f5
	lanes(-1.38888888888730564116e-3),      // _cos[4] 0xbf56c16c16c14f91
	lanes(4.16666666666665929218e-2),       // _cos[5] 0x3fa555555555554b
	lanes(0.5),
	lanes(1),
	lanes(math.Float64frombits(1 << 63)), // the sign bit
}

func lanes(x float64) [4]float64 { return [4]float64{x, x, x, x} }
