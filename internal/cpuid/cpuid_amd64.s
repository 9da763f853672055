#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $0, AX
	CPUID
	CMPL AX, $7                    // leaf 7 exists
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $(3<<27), CX              // leaf 1 ECX: OSXSAVE (27) and AVX (28)
	CMPL CX, $(3<<27)
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX                    // XCR0: the OS saves XMM (1) and YMM (2) state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	SHRL $5, BX                    // leaf 7 EBX bit 5: AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
no:
	RET
