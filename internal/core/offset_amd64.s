#include "textflag.h"

// The offset filter's weighted scan, four records per instruction
// (AVX2); internal/cpuid decides whether it may run. The contract is
// offset_amd64.go's: offsetScanAVX2 is offsetScanLoop (offset.go) over
// whole blocks of four records, equal to it bit for bit on finite
// inputs, reading nothing past the blocks. Each line below carries the
// loop's expression it computes; the operations are the loop's, in the
// loop's order, with separate multiplies and adds — no FMA, which would
// round once where the Go compiler rounds twice.
//
// Operand order is Go's: sources first, destination last, and for the
// non-commutative ones OP b, a, dst is dst = a − b, min(a, b), a ≤ b.
//
// Register map
//	SI  the block's first record (24-byte records: ftf, pointErr, theta)
//	CX  blocks left
//	DX  *scanParams: fnow 0, p 8, eps 16, invE 24, cutoff 32, gl 40
//	DI  *scanLanes: minET 0, sumW 32, sumWTheta 64 (written, never read)
//	R8  expNegTab, R9 scanK (rows K_* below)
//	Y15 fnow  Y14 p  Y13 eps  Y12 invE  Y8 cutoff  (broadcast once)
//	Y11 minET  Y10 sumW  Y9 sumWTheta              (lane i = record i of each block)
//	Y0–Y7 scratch; that is all sixteen, so gl is re-broadcast in every block

#define K_CLAMP   0(R9)   // 676
#define K_INVLN2  32(R9)  // invLn2x256
#define K_SHIFT   64(R9)  // expShift
#define K_LO32    96(R9)  // 0x00000000ffffffff
#define K_255     128(R9) // 255 as lane bits
#define K_BIAS    160(R9) // 1023 as lane bits
#define K_LN2HI   192(R9) // ln2Hi256
#define K_LN2LO   224(R9) // ln2Lo256
#define K_SIXTH   256(R9) // 1.0/6
#define K_HALF    288(R9) // 0.5
#define K_ONE     320(R9) // 1
#define K_INF     352(R9) // +Inf

// func offsetScanAVX2(recs *scanRec, nblocks int, par *scanParams, acc *scanLanes)
TEXT ·offsetScanAVX2(SB), NOSPLIT, $0-32
	MOVQ recs+0(FP), SI
	MOVQ nblocks+8(FP), CX
	MOVQ par+16(FP), DX
	MOVQ acc+24(FP), DI
	LEAQ ·expNegTab(SB), R8
	LEAQ ·scanK(SB), R9
	VBROADCASTSD 0(DX), Y15
	VBROADCASTSD 8(DX), Y14
	VBROADCASTSD 16(DX), Y13
	VBROADCASTSD 24(DX), Y12
	VBROADCASTSD 32(DX), Y8
	VMOVUPD K_INF, Y11             // the lanes start empty here rather than being loaded:
	VXORPD Y10, Y10, Y10           // a 32-byte load of what Go just stored 8 bytes at a
	VXORPD Y9, Y9, Y9              // time cannot be forwarded and stalls the first block
	TESTQ CX, CX
	JLE  done

block:
	// Four 24-byte records are twelve doubles; six 16-byte loads pair
	// them as [f0 e0|f2 e2], [t0 f1|t2 f3], [e1 t1|e3 t3], and three
	// shuffles finish the 3×4 transpose.
	VMOVUPD 0(SI), X0
	VMOVUPD 16(SI), X1
	VMOVUPD 32(SI), X2
	VINSERTF128 $1, 48(SI), Y0, Y0
	VINSERTF128 $1, 64(SI), Y1, Y1
	VINSERTF128 $1, 80(SI), Y2, Y2
	VSHUFPD $10, Y1, Y0, Y3        // ftf
	VSHUFPD $5, Y2, Y0, Y4         // pointErr
	VSHUFPD $10, Y2, Y1, Y5        // theta

	VSUBPD Y3, Y15, Y3             // fnow − ftf
	VMULPD Y14, Y3, Y3             // age = (fnow − ftf)·p
	VMULPD Y3, Y13, Y0             // eps·age
	VADDPD Y0, Y4, Y4              // et = pointErr + eps·age
	VMINPD Y11, Y4, Y11            // if et < minET { minET = et }
	VCMPPD $2, Y8, Y4, Y6          // keep = et ≤ cutoff, all ones or all zeros per lane
	VBROADCASTSD 40(DX), Y0
	VMULPD Y3, Y0, Y0              // gl·age
	VSUBPD Y0, Y5, Y5              // theta − gl·age

	VMULPD Y12, Y4, Y4             // x = et·invE
	VMULPD Y4, Y4, Y4              // arg = x·x
	VMINPD K_CLAMP, Y4, Y4         // if arg ≥ 676 { arg = 676 }
	VMULPD K_INVLN2, Y4, Y0
	VADDPD K_SHIFT, Y0, Y0         // t = arg·invLn2x256 + expShift
	VPAND  K_LO32, Y0, Y1          // k = int32(bits(t)); never negative under the clamp
	VPAND  K_255, Y1, Y2           // k & 255
	VPCMPEQD Y3, Y3, Y3            // the gather consumes its mask: re-arm it every block
	VGATHERQPD Y3, (R8)(Y2*8), Y7  // expNegTab[k&255]
	VPSRLQ $8, Y1, Y1              // k >> 8, at most 975 under the clamp
	VMOVDQU K_BIAS, Y2
	VPSUBQ Y1, Y2, Y1
	VPSLLQ $52, Y1, Y1             // expScaleTab[k>>8] = 2^−(k>>8), built as its exponent field
	VSUBPD K_SHIFT, Y0, Y0         // kf = t − expShift
	VMULPD K_LN2HI, Y0, Y2
	VSUBPD Y2, Y4, Y4              // arg − kf·ln2Hi256
	VMULPD K_LN2LO, Y0, Y0
	VSUBPD Y0, Y4, Y4              // rr = (arg − kf·ln2Hi256) − kf·ln2Lo256
	VMULPD Y4, Y4, Y0              // r2 = rr·rr
	VMULPD K_SIXTH, Y4, Y2         // rr·(1/6)
	VMOVUPD K_HALF, Y3
	VSUBPD Y2, Y3, Y2              // 0.5 − rr·(1/6)
	VMULPD Y2, Y0, Y0              // r2·(0.5 − rr·(1/6))
	VMOVUPD K_ONE, Y3
	VSUBPD Y4, Y3, Y3              // 1 − rr
	VADDPD Y0, Y3, Y3              // q = (1 − rr) + r2·(0.5 − rr·(1/6))
	VMULPD Y1, Y7, Y7              // expNegTab[k&255]·expScaleTab[k>>8]
	VMULPD Y3, Y7, Y7              // w = that·q

	// The loop skips a record beyond the cutoff; a lane cannot be
	// skipped, so it adds w AND keep: +0 there, which leaves a sum
	// that is never −0 the same bits.
	VANDPD Y6, Y7, Y0
	VADDPD Y0, Y10, Y10            // sumW += w
	VMULPD Y5, Y7, Y7              // w·(theta − gl·age)
	VANDPD Y6, Y7, Y7
	VADDPD Y7, Y9, Y9              // sumWTheta += w·(theta − gl·age)

	ADDQ $96, SI
	DECQ CX
	JNZ  block

done:
	VMOVUPD Y11, 0(DI)
	VMOVUPD Y10, 32(DI)
	VMOVUPD Y9, 64(DI)
	VZEROUPPER                     // the code around this is legacy SSE; dirty upper halves would tax all of it
	RET
