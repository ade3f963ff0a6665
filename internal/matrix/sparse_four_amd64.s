#include "textflag.h"

// substituteFour is SolveFour's substitution loops on the interleaved
// [slot][4] layout, one YMM register per entry. Each lane runs Solve's
// statements in Solve's order, one packed IEEE operation for the four
// scalar ones: w[li[p]] −= lx[p]·w[k] forward, w[k] /= d[k], then
// w[k] −= lx[p]·w[li[p]] backward, a multiply and then a subtract, never
// fused. Every lane therefore gets Solve's bits.

// func substituteFour(w [][4]float64, lp, li []int, lx, d [][4]float64)
TEXT ·substituteFour(SB), NOSPLIT, $0-120
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ lp_base+24(FP), R8
	MOVQ li_base+48(FP), R9
	MOVQ lx_base+72(FP), R10
	MOVQ d_base+96(FP), R11

	// L·y = P·b: for each column k, w[li[p]] −= lx[p]·w[k].
	XORQ AX, AX         // k
	MOVQ DI, SI         // &w[k]
	MOVQ (R8), DX       // p = lp[0]
fwdcol:
	CMPQ    AX, CX
	JGE     diag
	MOVQ    8(R8)(AX*8), R12 // lp[k+1]
	VMOVUPD (SI), Y0         // w[k]
	MOVQ    DX, R14
	SHLQ    $5, R14
	ADDQ    R10, R14         // &lx[p]
fwd:
	CMPQ    DX, R12
	JGE     fwdnext
	MOVQ    (R9)(DX*8), R13  // li[p]
	SHLQ    $5, R13
	VMULPD  (R14), Y0, Y1
	VMOVUPD (DI)(R13*1), Y2
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(R13*1)
	ADDQ    $32, R14
	INCQ    DX
	JMP     fwd
fwdnext:
	ADDQ $32, SI
	INCQ AX
	JMP  fwdcol

	// D·z = y.
diag:
	XORQ AX, AX
	MOVQ CX, BX
	SHLQ $5, BX
diagloop:
	CMPQ    AX, BX
	JGE     bwdstart
	VMOVUPD (DI)(AX*1), Y0
	VDIVPD  (R11)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     diagloop

	// Lᵀ·(P·x) = z: for each column k from the last, w[k] −= lx[p]·w[li[p]].
bwdstart:
	MOVQ CX, AX         // k+1
	MOVQ BX, SI
	ADDQ DI, SI         // &w[k+1]
bwdcol:
	TESTQ   AX, AX
	JEQ     done
	DECQ    AX
	SUBQ    $32, SI
	MOVQ    (R8)(AX*8), DX   // lp[k]
	MOVQ    8(R8)(AX*8), R12 // lp[k+1]
	VMOVUPD (SI), Y0         // w[k]
	MOVQ    DX, R14
	SHLQ    $5, R14
	ADDQ    R10, R14         // &lx[p]
bwd:
	CMPQ    DX, R12
	JGE     bwdnext
	MOVQ    (R9)(DX*8), R13  // li[p]
	SHLQ    $5, R13
	VMOVUPD (DI)(R13*1), Y1
	VMULPD  (R14), Y1, Y1
	VSUBPD  Y1, Y0, Y0
	ADDQ    $32, R14
	INCQ    DX
	JMP     bwd
bwdnext:
	VMOVUPD Y0, (SI)
	JMP     bwdcol

done:
	VZEROUPPER
	RET

// factorizeFour is FactorizeFour's numeric loop on the interleaved
// [slot][4] layout, one YMM register per entry: per lane the scatter adds
// (VADDPD), the column updates y[li[p]] −= lx[p]·yi (VMULPD, then VSUBPD),
// l = yi/d[i] (VDIVPD) and dk −= l·yi, in Factorize's order, never fused.
// Bit l of the result is set when lane l's pivot is not > 0.

// func factorizeFour(vals *[4][]float64, y [][4]float64, colPtr, rowIdx, rowPtr []int, rowCol, rowSlot []int32, lp, li []int, lx, d [][4]float64) (failed int)
TEXT ·factorizeFour(SB), NOSPLIT, $0-256
	MOVQ   $0, failed+248(FP)
	MOVQ   y_base+8(FP), DI
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX // k

col:
	CMPQ AX, y_len+16(FP)
	JGE  end

	// Scatter column k of each lane's A into y.
	MOVQ colPtr_base+32(FP), SI
	MOVQ (SI)(AX*8), DX
	MOVQ 8(SI)(AX*8), CX
	MOVQ rowIdx_base+56(FP), BX
	MOVQ vals+0(FP), SI
	MOVQ 0(SI), R8
	MOVQ 24(SI), R9
	MOVQ 48(SI), R10
	MOVQ 72(SI), R11

scatter:
	CMPQ        DX, CX
	JGE         scattered
	VMOVSD      (R8)(DX*8), X1
	VMOVHPD     (R9)(DX*8), X1, X1
	VMOVSD      (R10)(DX*8), X2
	VMOVHPD     (R11)(DX*8), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	MOVQ        (BX)(DX*8), R12
	SHLQ        $5, R12
	VADDPD      (DI)(R12*1), Y1, Y1
	VMOVUPD     Y1, (DI)(R12*1)
	INCQ        DX
	JMP         scatter

scattered:
	MOVQ    AX, R12
	SHLQ    $5, R12
	VMOVUPD (DI)(R12*1), Y0 // dk
	VMOVUPD Y7, (DI)(R12*1)

	// Row k: for each column i of its pattern, in order.
	MOVQ rowPtr_base+80(FP), SI
	MOVQ (SI)(AX*8), DX
	MOVQ 8(SI)(AX*8), CX
	MOVQ rowCol_base+104(FP), R8
	MOVQ rowSlot_base+128(FP), R9
	MOVQ li_base+176(FP), R11
	MOVQ lx_base+200(FP), R13

row:
	CMPQ    DX, CX
	JGE     rowdone
	MOVLQSX (R8)(DX*4), R12 // i
	MOVLQSX (R9)(DX*4), SI  // slot
	MOVQ    lp_base+152(FP), R10
	MOVQ    (R10)(R12*8), R14 // p = lp[i]
	SHLQ    $5, R12
	VMOVUPD (DI)(R12*1), Y2 // yi
	VMOVUPD Y7, (DI)(R12*1)
	MOVQ    R14, R10
	SHLQ    $5, R10
	ADDQ    R13, R10        // &lx[p]

update:
	CMPQ    R14, SI
	JGE     updated
	MOVQ    (R11)(R14*8), BX
	SHLQ    $5, BX
	VMULPD  (R10), Y2, Y3
	VMOVUPD (DI)(BX*1), Y4
	VSUBPD  Y3, Y4, Y4
	VMOVUPD Y4, (DI)(BX*1)
	ADDQ    $32, R10
	INCQ    R14
	JMP     update

updated:
	MOVQ    d_base+224(FP), BX
	VDIVPD  (BX)(R12*1), Y2, Y3 // l = yi/d[i]
	VMULPD  Y2, Y3, Y4
	VSUBPD  Y4, Y0, Y0          // dk −= l·yi
	SHLQ    $5, SI
	VMOVUPD Y3, (R13)(SI*1)     // lx[slot] = l
	INCQ    DX
	JMP     row

rowdone:
	// !(dk > 0) catches dk ≤ 0 and NaN.
	VCMPPD    $0x1E, Y7, Y0, Y5 // dk > 0, ordered
	VMOVMSKPD Y5, BX
	XORQ      $15, BX
	ORQ       BX, failed+248(FP)
	MOVQ      d_base+224(FP), BX
	MOVQ      AX, R12
	SHLQ      $5, R12
	VMOVUPD   Y0, (BX)(R12*1)
	INCQ      AX
	JMP       col

end:
	VZEROUPPER
	RET
