#include "textflag.h"

// PIVOT takes the pivot d from X0's low lane. Unless d > 0 (an ordered
// compare, false for NaN) it jumps to fail; otherwise it leaves √d in X10's
// low lane and in every lane of Y15. X9 holds zero.
#define PIVOT \
	VCMPSD       $0x1e, X9, X0, X10; \
	VMOVMSKPD    X10, AX; \
	TESTQ        $1, AX; \
	JZ           fail; \
	VSQRTSD      X0, X0, X10; \
	VBROADCASTSD X10, Y15

// func factorRowLanes(u []float64, st, j, n int) bool
//
// Turns row j of the n×st row-major matrix u from A's values into U's,
// U[j][j:n] = (A[j][j:n] − Σ_{k<j} U[k][j]·U[k][j:n]) / U[j][j], given U's
// rows k < j. Columns go 16, then 4, then 1 at a time; each block stays in
// registers through the whole ascending k loop, subtracting per k the
// separately rounded product of the broadcast U[k][j] with U[k]'s block
// (VMULPD then VSUBPD, never a fused multiply-add). The first block holds
// the diagonal: its pivot is checked and square-rooted, and every later
// element is divided by the root (VDIVPD). Returns false, with nothing of
// the row written, where the pivot is not positive.
TEXT ·factorRowLanes(SB), NOSPLIT, $0-49
	MOVB  $0, ret+48(FP)
	MOVQ  u_base+0(FP), SI
	MOVQ  st+24(FP), R8
	MOVQ  j+32(FP), R9
	MOVQ  n+40(FP), CX
	SUBQ  R9, CX            // CX = columns left in the row
	LEAQ  (SI)(R9*8), SI    // SI = &U[0][j]
	MOVQ  R8, DI
	IMULQ R9, DI
	LEAQ  (SI)(DI*8), DI    // DI = &U[j][j]
	SHLQ  $3, R8            // R8 = stride in bytes
	XORQ  DX, DX            // DX = byte offset of the block in the row
	VXORPD X9, X9, X9

block16:
	CMPQ    CX, $16
	JLT     block4
	VMOVUPD (DI)(DX*1), Y0
	VMOVUPD 32(DI)(DX*1), Y1
	VMOVUPD 64(DI)(DX*1), Y2
	VMOVUPD 96(DI)(DX*1), Y3
	MOVQ    SI, BX          // BX = &U[k][j]
	MOVQ    R9, R11
	TESTQ   R11, R11
	JZ      end16

loop16:
	VBROADCASTSD (BX), Y4
	VMULPD       (BX)(DX*1), Y4, Y5
	VSUBPD       Y5, Y0, Y0
	VMULPD       32(BX)(DX*1), Y4, Y6
	VSUBPD       Y6, Y1, Y1
	VMULPD       64(BX)(DX*1), Y4, Y7
	VSUBPD       Y7, Y2, Y2
	VMULPD       96(BX)(DX*1), Y4, Y8
	VSUBPD       Y8, Y3, Y3
	ADDQ         R8, BX
	DECQ         R11
	JNZ          loop16

end16:
	TESTQ DX, DX
	JNZ   div16
	PIVOT

div16:
	VDIVPD Y15, Y0, Y0
	VDIVPD Y15, Y1, Y1
	VDIVPD Y15, Y2, Y2
	VDIVPD Y15, Y3, Y3
	TESTQ  DX, DX
	JNZ    store16
	VBLENDPD $1, Y15, Y0, Y0 // the diagonal is the root itself

store16:
	VMOVUPD Y0, (DI)(DX*1)
	VMOVUPD Y1, 32(DI)(DX*1)
	VMOVUPD Y2, 64(DI)(DX*1)
	VMOVUPD Y3, 96(DI)(DX*1)
	ADDQ    $128, DX
	SUBQ    $16, CX
	JMP     block16

block4:
	CMPQ    CX, $4
	JLT     block1
	VMOVUPD (DI)(DX*1), Y0
	MOVQ    SI, BX
	MOVQ    R9, R11
	TESTQ   R11, R11
	JZ      end4

loop4:
	VBROADCASTSD (BX), Y4
	VMULPD       (BX)(DX*1), Y4, Y5
	VSUBPD       Y5, Y0, Y0
	ADDQ         R8, BX
	DECQ         R11
	JNZ          loop4

end4:
	TESTQ DX, DX
	JNZ   div4
	PIVOT

div4:
	VDIVPD Y15, Y0, Y0
	TESTQ  DX, DX
	JNZ    store4
	VBLENDPD $1, Y15, Y0, Y0

store4:
	VMOVUPD Y0, (DI)(DX*1)
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     block4

block1:
	TESTQ  CX, CX
	JZ     done
	VMOVSD (DI)(DX*1), X0
	MOVQ   SI, BX
	MOVQ   R9, R11
	TESTQ  R11, R11
	JZ     end1

loop1:
	VMOVSD (BX), X4
	VMULSD (BX)(DX*1), X4, X5
	VSUBSD X5, X0, X0
	ADDQ   R8, BX
	DECQ   R11
	JNZ    loop1

end1:
	TESTQ DX, DX
	JNZ   div1
	PIVOT
	VMOVAPD X10, X0
	JMP   store1

div1:
	VDIVSD X15, X0, X0

store1:
	VMOVSD X0, (DI)(DX*1)
	ADDQ   $8, DX
	DECQ   CX
	JMP    block1

done:
	MOVB $1, ret+48(FP)

fail:
	VZEROUPPER
	RET

// func HasAVX2FMA() bool
//
// CPUID OSXSAVE, AVX and FMA, then XGETBV for XMM and YMM state, then CPUID
// leaf 7 for AVX2.
TEXT ·HasAVX2FMA(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX // AVX, OSXSAVE, FMA
	CMPL CX, $0x18001000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX // AVX2
	JZ   no
	MOVB $1, ret+0(FP)

no:
	RET

// func solveLower4Lanes(u []float64, st, n int, b []float64)
//
// Solves L·y = b in place for the four length-n rows of b, L being the
// transpose of the upper triangle of the n×st row-major matrix u. As each
// y_r[k] = b_r[k] / U[k][k] is found (four scalar divides), it is subtracted
// from the rest of its row, b_r[k+1:n] −= U[k][k+1:n]·y_r[k], four columns
// per instruction with a separate VMULPD and VSUBPD, then the row's tail one
// column at a time. Every entry so takes its products in ascending k, each
// rounded once, before its own division: the operations of the row-at-a-time
// dot-product solve.
TEXT ·solveLower4Lanes(SB), NOSPLIT, $0-64
	MOVQ u_base+0(FP), SI   // SI = &U[k][k]
	MOVQ st+24(FP), R8
	LEAQ 8(R8*8), R8        // R8 = bytes from U[k][k] to U[k+1][k+1]
	MOVQ n+32(FP), CX       // CX = n-k
	MOVQ b_base+40(FP), DI  // DI, R10, R11, R12 = &b_r[k]
	MOVQ CX, R9
	SHLQ $3, R9
	LEAQ (DI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12

col:
	VMOVSD (SI), X15
	VMOVSD (DI), X0
	VDIVSD X15, X0, X0
	VMOVSD X0, (DI)
	VMOVSD (R10), X1
	VDIVSD X15, X1, X1
	VMOVSD X1, (R10)
	VMOVSD (R11), X2
	VDIVSD X15, X2, X2
	VMOVSD X2, (R11)
	VMOVSD (R12), X3
	VDIVSD X15, X3, X3
	VMOVSD X3, (R12)
	VBROADCASTSD X0, Y0
	VBROADCASTSD X1, Y1
	VBROADCASTSD X2, Y2
	VBROADCASTSD X3, Y3
	DECQ CX                 // CX = columns right of k
	JZ   done
	MOVQ CX, DX
	MOVQ $8, AX             // AX = byte offset of the block from column k

axpy4:
	CMPQ    DX, $4
	JLT     axpy1
	VMOVUPD (SI)(AX*1), Y4
	VMULPD  Y4, Y0, Y5
	VMOVUPD (DI)(AX*1), Y6
	VSUBPD  Y5, Y6, Y6
	VMOVUPD Y6, (DI)(AX*1)
	VMULPD  Y4, Y1, Y5
	VMOVUPD (R10)(AX*1), Y6
	VSUBPD  Y5, Y6, Y6
	VMOVUPD Y6, (R10)(AX*1)
	VMULPD  Y4, Y2, Y5
	VMOVUPD (R11)(AX*1), Y6
	VSUBPD  Y5, Y6, Y6
	VMOVUPD Y6, (R11)(AX*1)
	VMULPD  Y4, Y3, Y5
	VMOVUPD (R12)(AX*1), Y6
	VSUBPD  Y5, Y6, Y6
	VMOVUPD Y6, (R12)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, DX
	JMP     axpy4

axpy1:
	TESTQ  DX, DX
	JZ     next
	VMOVSD (SI)(AX*1), X4
	VMULSD X4, X0, X5
	VMOVSD (DI)(AX*1), X6
	VSUBSD X5, X6, X6
	VMOVSD X6, (DI)(AX*1)
	VMULSD X4, X1, X5
	VMOVSD (R10)(AX*1), X6
	VSUBSD X5, X6, X6
	VMOVSD X6, (R10)(AX*1)
	VMULSD X4, X2, X5
	VMOVSD (R11)(AX*1), X6
	VSUBSD X5, X6, X6
	VMOVSD X6, (R11)(AX*1)
	VMULSD X4, X3, X5
	VMOVSD (R12)(AX*1), X6
	VSUBSD X5, X6, X6
	VMOVSD X6, (R12)(AX*1)
	ADDQ   $8, AX
	DECQ   DX
	JMP    axpy1

next:
	ADDQ R8, SI
	ADDQ $8, DI
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	JMP  col

done:
	VZEROUPPER
	RET
