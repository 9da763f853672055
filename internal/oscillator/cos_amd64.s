#include "textflag.h"

// The oscillator's four-lane cosine (AVX2). The contract is
// cos_amd64.go's: lane i is math.Cos(float64(ω·t)+φ) (math/sin.go's cos)
// bit for bit wherever the argument is finite and |x| < 2²⁹, the range
// in which math.Cos reduces with Cody–Waite rather than Payne–Hanek.
// Each line below carries the Go expression it computes; the
// operations are math.Cos's, in its order, with separate multiplies and
// adds — no FMA, which would round once where the Go compiler rounds
// twice. Both of its branches, the sine and the cosine polynomial, are
// evaluated in every lane and VBLENDVPD picks one per lane.
//
// Operand order is Go's: sources first, destination last, and for the
// non-commutative ones OP b, a, dst is dst = a − b, a < b.
//
// Register map
//	AX  q: omega 0, phase 32       R9  cosK (rows K_* below)
//	Y0  x, then z    Y1  zz        Y3  j (the octant, one per qword)
//	Y2, Y4–Y9 scratch

#define K_ABS     0(R9)   // all bits but the sign
#define K_REDUCE  32(R9)  // 2²⁹, math's reduceThreshold
#define K_4PI     64(R9)  // 4/π
#define K_ONE32   96(R9)  // int32 1
#define K_SEVEN32 128(R9) // int32 7
#define K_PI4A    160(R9)
#define K_PI4B    192(R9)
#define K_PI4C    224(R9)
#define K_S0      256(R9) // _sin[0…5]
#define K_S1      288(R9)
#define K_S2      320(R9)
#define K_S3      352(R9)
#define K_S4      384(R9)
#define K_S5      416(R9)
#define K_C0      448(R9) // _cos[0…5]
#define K_C1      480(R9)
#define K_C2      512(R9)
#define K_C3      544(R9)
#define K_C4      576(R9)
#define K_C5      608(R9)
#define K_HALF    640(R9)
#define K_ONE     672(R9)
#define K_SIGN    704(R9)

// func cos4AVX2(t float64, q *quad) (c [4]float64, done int)
TEXT ·cos4AVX2(SB), NOSPLIT, $0-56
	MOVQ q+8(FP), AX
	LEAQ ·cosK(SB), R9
	VBROADCASTSD t+0(FP), Y0
	VMULPD 0(AX), Y0, Y0           // ω·t
	VADDPD 32(AX), Y0, Y0          // x = float64(ω·t) + φ
	VANDPD K_ABS, Y0, Y0           // x = Abs(x)
	VCMPPD $1, K_REDUCE, Y0, Y1    // x < reduceThreshold, false for NaN
	VMOVMSKPD Y1, BX
	MOVQ BX, done+48(FP)

	VMULPD K_4PI, Y0, Y2           // x·(4/π)
	VCVTTPD2DQY Y2, X3             // j = uint64(x·(4/π)), below 2³¹ in the domain
	VPAND K_ONE32, X3, X2
	VPADDD X2, X3, X3              // if j&1 == 1 { j++ }
	VCVTDQ2PD X3, Y4               // y = float64(j), y++ with it
	VPAND K_SEVEN32, X3, X3        // j &= 7
	VPMOVZXDQ X3, Y3
	VMULPD K_PI4A, Y4, Y2
	VSUBPD Y2, Y0, Y0              // x − y·PI4A
	VMULPD K_PI4B, Y4, Y2
	VSUBPD Y2, Y0, Y0              // (x − y·PI4A) − y·PI4B
	VMULPD K_PI4C, Y4, Y2
	VSUBPD Y2, Y0, Y0              // z = ((x − y·PI4A) − y·PI4B) − y·PI4C
	VMULPD Y0, Y0, Y1              // zz = z·z

	VMULPD K_S0, Y1, Y2            // _sin[0]·zz
	VADDPD K_S1, Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD K_S2, Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD K_S3, Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD K_S4, Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD K_S5, Y2, Y2            // ((((_sin[0]·zz+_sin[1])·zz+_sin[2])·zz+_sin[3])·zz+_sin[4])·zz+_sin[5]
	VMULPD Y1, Y0, Y4              // z·zz
	VMULPD Y2, Y4, Y4              // z·zz·(…)
	VADDPD Y4, Y0, Y4              // sine branch: z + z·zz·(…)

	VMULPD K_C0, Y1, Y2            // _cos[0]·zz
	VADDPD K_C1, Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD K_C2, Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD K_C3, Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD K_C4, Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD K_C5, Y2, Y2            // ((((_cos[0]·zz+_cos[1])·zz+_cos[2])·zz+_cos[3])·zz+_cos[4])·zz+_cos[5]
	VMULPD Y1, Y1, Y5              // zz·zz
	VMULPD Y2, Y5, Y5              // zz·zz·(…)
	VMULPD K_HALF, Y1, Y2          // 0.5·zz
	VMOVUPD K_ONE, Y6
	VSUBPD Y2, Y6, Y6              // 1.0 − 0.5·zz
	VADDPD Y5, Y6, Y6              // cosine branch: 1.0 − 0.5·zz + zz·zz·(…)

	// j is 0, 2, 4 or 6. Bit 1 picks the sine branch (j == 1 || j == 2
	// once j > 3 has taken 4 off), bit 1 XOR bit 2 the sign (j > 3 and
	// j > 1 each flip it).
	VPSLLQ $62, Y3, Y7             // bit 1 to the lane's sign bit
	VBLENDVPD Y7, Y4, Y6, Y8       // y = j == 1 || j == 2 ? sine : cosine
	VPSLLQ $61, Y3, Y9             // bit 2 to the lane's sign bit
	VPXOR Y7, Y9, Y9
	VANDPD K_SIGN, Y9, Y9
	VXORPD Y9, Y8, Y8              // if sign { y = −y }
	LEAQ c+16(FP), DI              // (vet's asmdecl has no 32-byte store to a named result)
	VMOVUPD Y8, 0(DI)
	VZEROUPPER                     // the code around this is legacy SSE; dirty upper halves would tax all of it
	RET
