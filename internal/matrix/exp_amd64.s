#include "textflag.h"

// expBlocks replays the avxfma path of the standard library's amd64
// math.Exp (math/exp_amd64.s, after Shibata's SLEEF method) on four lanes
// at a time: the same constants, the same rounding of x·log2(e) to the
// nearest integer k through MXCSR, the same fused reduction, Taylor
// polynomial and squarings, and the same exact 2^k scaling. Every lane
// therefore gets math.Exp's bits. Only |x| < 700 is taken, where k stays
// inside the normal exponent range and math.Exp's overflow, denormal and
// non-finite branches never run.

// BCAST stores val four times: one 32-byte memory operand per constant.
#define BCAST(off, val) DATA expconst<>+(off)(SB)/8, val; DATA expconst<>+(off+8)(SB)/8, val; DATA expconst<>+(off+16)(SB)/8, val; DATA expconst<>+(off+24)(SB)/8, val

BCAST(0, $0x7FFFFFFFFFFFFFFF)                               // |x| mask
BCAST(32, $700.0)                                           // range limit
BCAST(64, $1.4426950408889634073599246810018920)            // log2(e)
BCAST(96, $0.69314718055966295651160180568695068359375)     // upper half ln 2
BCAST(128, $0.28235290563031577122588448175013436025525412068e-12) // lower half ln 2
BCAST(160, $0.0625)
BCAST(192, $2.4801587301587301587e-5)
BCAST(224, $1.9841269841269841270e-4)
BCAST(256, $1.3888888888888888889e-3)
BCAST(288, $8.3333333333333333333e-3)
BCAST(320, $4.1666666666666666667e-2)
BCAST(352, $1.6666666666666666667e-1)
BCAST(384, $0.5)
BCAST(416, $1.0)
BCAST(448, $2.0)
BCAST(480, $0x3FF)                                          // exponent bias
GLOBL expconst<>(SB), RODATA|NOPTR, $512

// func expBlocks(dst, src []float64) int
TEXT ·expBlocks(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (SI)(AX*8), Y0

	// A block with a lane outside (−700, 700), NaN included, is left to
	// the caller.
	VANDPD    expconst<>+0(SB), Y0, Y4
	VCMPPD    $0x11, expconst<>+32(SB), Y4, Y4 // |x| < 700, ordered
	VMOVMSKPD Y4, BX
	CMPQ      BX, $15
	JNE       done

	VMULPD       expconst<>+64(SB), Y0, Y1 // x·log2(e)
	VCVTPD2DQY   Y1, X2                    // k, rounded through MXCSR
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD expconst<>+96(SB), Y1, Y0  // x −= k·LN2U
	VFNMADD231PD expconst<>+128(SB), Y1, Y0 // x −= k·LN2L
	VMULPD       expconst<>+160(SB), Y0, Y0 // x /= 16

	// Taylor series of e^x − 1, then four squarings of (1 + r).
	VMOVUPD     expconst<>+192(SB), Y1
	VFMADD213PD expconst<>+224(SB), Y0, Y1
	VFMADD213PD expconst<>+256(SB), Y0, Y1
	VFMADD213PD expconst<>+288(SB), Y0, Y1
	VFMADD213PD expconst<>+320(SB), Y0, Y1
	VFMADD213PD expconst<>+352(SB), Y0, Y1
	VFMADD213PD expconst<>+384(SB), Y0, Y1
	VFMADD213PD expconst<>+416(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+448(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+448(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+448(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+448(SB), Y0, Y1
	VFMADD213PD expconst<>+416(SB), Y1, Y0

	// Multiply by 2^k, built from its exponent bits.
	VPMOVSXDQ X2, Y3
	VPADDQ    expconst<>+480(SB), Y3, Y3
	VPSLLQ    $52, Y3, Y3
	VMULPD    Y3, Y0, Y0

	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop

done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
