#include "textflag.h"

// logBlocks replays the standard library's amd64 math.Log
// (math/log_amd64.s, after FreeBSD's e_log.c) on four lanes at a time:
// the same constants, the same frexp split by exponent bits, the same
// f1 ≤ √2/2 adjustment, the same polynomial in the same order, and no
// FMA. Every step is one IEEE add, subtract, multiply or divide of the
// scalar code, or exact, so every lane gets math.Log's bits. Only
// positive normal finite x is taken, where math.Log's special cases and
// its (unnormalized) subnormal split never run.

// BCAST stores val four times: one 32-byte memory operand per constant.
#define BCAST(off, val) DATA logconst<>+(off)(SB)/8, val; DATA logconst<>+(off+8)(SB)/8, val; DATA logconst<>+(off+16)(SB)/8, val; DATA logconst<>+(off+24)(SB)/8, val

BCAST(0, $0x0010000000000000)                 // smallest normal
BCAST(32, $0x7FF0000000000000)                // +Inf
BCAST(64, $0x000FFFFFFFFFFFFF)                // mantissa mask
BCAST(96, $0x3FE0000000000000)                // 0.5
BCAST(128, $0x4330000000000000)               // 2^52
BCAST(160, $0x43300000000003FE)               // 2^52 + 1022
BCAST(192, $7.07106781186547524401e-01)       // √2/2
BCAST(224, $1.0)
BCAST(256, $2.0)
BCAST(288, $1.479819860511658591e-01)         // L7
BCAST(320, $1.818357216161805012e-01)         // L5
BCAST(352, $2.857142874366239149e-01)         // L3
BCAST(384, $6.666666666666735130e-01)         // L1
BCAST(416, $1.531383769920937332e-01)         // L6
BCAST(448, $2.222219843214978396e-01)         // L4
BCAST(480, $3.999999999940941908e-01)         // L2
BCAST(512, $1.90821492927058770002e-10)       // Ln2Lo
BCAST(544, $6.93147180369123816490e-01)       // Ln2Hi
GLOBL logconst<>(SB), RODATA|NOPTR, $576

// func logBlocks(dst, src []float64) int
TEXT ·logBlocks(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*8), Y0

	// A block with a lane outside [smallest normal, +Inf), NaN included,
	// is left to the caller.
	VCMPPD    $0x1D, logconst<>+0(SB), Y0, Y4  // x ≥ smallest normal, ordered
	VCMPPD    $0x11, logconst<>+32(SB), Y0, Y5 // x < +Inf, ordered
	VANDPD    Y5, Y4, Y4
	VMOVMSKPD Y4, BX
	CMPQ      BX, $15
	JNE       done

	// f1, k := frexp(x): the mantissa under exponent 0.5, and the biased
	// exponent minus 1022 converted through 2^52 (exact).
	VANDPD logconst<>+64(SB), Y0, Y2
	VORPD  logconst<>+96(SB), Y2, Y2  // f1
	VPSRLQ $52, Y0, Y1
	VPOR   logconst<>+128(SB), Y1, Y1
	VSUBPD logconst<>+160(SB), Y1, Y1 // k

	// if f1 ≤ √2/2 { k -= 1; f1 *= 2 }, as 0 or 1 subtracted and 1 or 2
	// multiplied; then f := f1 − 1.
	VCMPPD $0x02, logconst<>+192(SB), Y2, Y3
	VANDPD logconst<>+224(SB), Y3, Y3
	VSUBPD Y3, Y1, Y1
	VADDPD logconst<>+224(SB), Y3, Y3
	VMULPD Y3, Y2, Y2
	VSUBPD logconst<>+224(SB), Y2, Y2 // f

	// s := f/(2+f); s2 := s·s; s4 := s2·s2.
	VADDPD logconst<>+256(SB), Y2, Y0
	VDIVPD Y0, Y2, Y3 // s
	VMULPD Y3, Y3, Y4 // s2
	VMULPD Y4, Y4, Y5 // s4

	// t1 := s2·(L1 + s4·(L3 + s4·(L5 + s4·L7))).
	VMULPD logconst<>+288(SB), Y5, Y6
	VADDPD logconst<>+320(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logconst<>+352(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logconst<>+384(SB), Y6, Y6
	VMULPD Y6, Y4, Y4 // t1

	// t2 := s4·(L2 + s4·(L4 + s4·L6)); R := t1 + t2.
	VMULPD logconst<>+416(SB), Y5, Y6
	VADDPD logconst<>+448(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logconst<>+480(SB), Y6, Y6
	VMULPD Y6, Y5, Y5 // t2
	VADDPD Y5, Y4, Y4 // R

	// hfsq := 0.5·f·f;
	// k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f).
	VMULPD logconst<>+96(SB), Y2, Y0
	VMULPD Y2, Y0, Y0                  // hfsq
	VADDPD Y0, Y4, Y4
	VMULPD Y4, Y3, Y3                  // s·(hfsq+R)
	VMULPD logconst<>+512(SB), Y1, Y4  // k·Ln2Lo
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y0, Y0
	VSUBPD Y2, Y0, Y0
	VMULPD logconst<>+544(SB), Y1, Y1  // k·Ln2Hi
	VSUBPD Y0, Y1, Y1

	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop

done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET
