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

// PAIR solves the two entries k and k+1 of the row at p, given U[k][k] in
// X15, U[k][k+1] in X13 and U[k+1][k+1] in X14: x = b[k]/U[k][k], then
// y = (b[k+1] − U[k][k+1]·x)/U[k+1][k+1], each operation rounded on its own.
// It stores both and broadcasts them into xv and yv.
#define PAIR(p, xs, ys, xv, yv) \
	VMOVSD       (p), xs; \
	VDIVSD       X15, xs, xs; \
	VMULSD       X13, xs, X12; \
	VMOVSD       8(p), ys; \
	VSUBSD       X12, ys, ys; \
	VDIVSD       X14, ys, ys; \
	VMOVSD       xs, (p); \
	VMOVSD       ys, 8(p); \
	VBROADCASTSD xs, xv; \
	VBROADCASTSD ys, yv

// SUB4 subtracts from four columns of the row at p the product of x with
// row k's columns in Y8, then the product of y with row k+1's in Y9: a
// VMULPD and a VSUBPD each.
#define SUB4(p, x, y) \
	VMOVUPD (p)(AX*1), Y11; \
	VMULPD  Y8, x, Y10; \
	VSUBPD  Y10, Y11, Y11; \
	VMULPD  Y9, y, Y10; \
	VSUBPD  Y10, Y11, Y11; \
	VMOVUPD Y11, (p)(AX*1)

// SUB1 is SUB4 on the single column in X8 and X9.
#define SUB1(p, x, y) \
	VMOVSD (p)(AX*1), X11; \
	VMULSD X8, x, X10; \
	VSUBSD X10, X11, X11; \
	VMULSD X9, y, X10; \
	VSUBSD X10, X11, X11; \
	VMOVSD X11, (p)(AX*1)

// LAST divides the row's last entry, at p, by U[n-1][n-1] in X15.
#define LAST(p) \
	VMOVSD (p), X0; \
	VDIVSD X15, X0, X0; \
	VMOVSD X0, (p)

// func solveLowerLanes(u []float64, st, n int, b []float64)
//
// Solves L·y = b in place for the one to four length-n rows of b, L being
// the transpose of the upper triangle of the n×st row-major matrix u (n ≥ 1,
// len(b) a multiple of n). It takes the rows of U two at a time, as
// solveLower4Go does: y_r[k] and y_r[k+1] are solved with scalar
// operations, then b_r[c] −= U[k][c]·y_r[k], and then −= U[k+1][c]·y_r[k+1],
// for every c > k+1, first the (n−k−2) mod 4 columns after k+1 one at a
// time, then four columns per instruction, each product a VMULPD and each
// subtraction a VSUBPD of its own. The blocks of four so end at column n−1
// at every step, and a load of a block reads what one store of the step
// before wrote, which the processor forwards. Every entry thus takes its
// products in ascending k, each rounded once, before its own division: the
// operations of the row-at-a-time dot-product solve. Rows go from the last
// to row 0; with four rows each step takes the straight path, and fewer
// enter it at their last row (the *few stubs).
TEXT ·solveLowerLanes(SB), NOSPLIT, $0-64
	MOVQ u_base+0(FP), SI   // SI = &U[k][k]
	MOVQ st+24(FP), R8
	LEAQ 8(R8*8), R9        // R9 = bytes from U[k][k] to U[k+1][k+1]
	MOVQ n+32(FP), CX       // CX = n-k
	MOVQ b_base+40(FP), DI  // DI, R10, R11, R12 = &b_r[k]
	MOVQ b_len+48(FP), AX
	XORQ R13, R13

rows:
	INCQ R13
	SUBQ CX, AX
	JGT  rows               // R13 = len(b)/n, the rows of b
	MOVQ CX, R8
	SHLQ $3, R8
	LEAQ (DI)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12

pair:
	CMPQ   CX, $2
	JLT    last
	LEAQ   (SI)(R9*1), BX   // BX = &U[k+1][k+1]
	VMOVSD (SI), X15
	VMOVSD 8(SI), X13
	VMOVSD (BX), X14
	CMPQ   R13, $3
	JLE    pfew
	PAIR(R12, X3, X7, Y3, Y7)

p2:
	PAIR(R11, X2, X6, Y2, Y6)

p1:
	PAIR(R10, X1, X5, Y1, Y5)

p0:
	PAIR(DI, X0, X4, Y0, Y4)
	SUBQ $2, CX             // CX = columns right of k+1
	JZ   done
	MOVQ CX, DX
	ANDQ $3, DX             // DX = columns before the blocks of four
	MOVQ $16, AX            // AX = byte offset of the column from column k

head:
	TESTQ  DX, DX
	JZ     blocks
	VMOVSD (SI)(AX*1), X8
	VMOVSD -8(BX)(AX*1), X9
	CMPQ   R13, $3
	JLE    hfew
	SUB1(R12, X3, X7)

h2:
	SUB1(R11, X2, X6)

h1:
	SUB1(R10, X1, X5)

h0:
	SUB1(DI, X0, X4)
	ADDQ $8, AX
	DECQ DX
	JMP  head

blocks:
	MOVQ CX, DX
	SHRQ $2, DX             // DX = blocks of four, the last ending at column n-1

block:
	TESTQ   DX, DX
	JZ      next
	VMOVUPD (SI)(AX*1), Y8
	VMOVUPD -8(BX)(AX*1), Y9
	CMPQ    R13, $3
	JLE     bfew
	SUB4(R12, Y3, Y7)

b2:
	SUB4(R11, Y2, Y6)

b1:
	SUB4(R10, Y1, Y5)

b0:
	SUB4(DI, Y0, Y4)
	ADDQ $32, AX
	DECQ DX
	JMP  block

next:
	LEAQ (BX)(R9*1), SI     // SI = &U[k+2][k+2]
	ADDQ $16, DI
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, R12
	JMP  pair

last:
	TESTQ  CX, CX
	JZ     done
	VMOVSD (SI), X15        // n is odd: one entry left in every row
	CMPQ   R13, $3
	JLE    lfew
	LAST(R12)

l2:
	LAST(R11)

l1:
	LAST(R10)

l0:
	LAST(DI)

done:
	VZEROUPPER
	RET

// Fewer than four rows, with the flags of CMPQ R13, $3: three enter at
// row 2, two at row 1, one at row 0.
pfew:
	JEQ  p2
	CMPQ R13, $2
	JEQ  p1
	JMP  p0

hfew:
	JEQ  h2
	CMPQ R13, $2
	JEQ  h1
	JMP  h0

bfew:
	JEQ  b2
	CMPQ R13, $2
	JEQ  b1
	JMP  b0

lfew:
	JEQ  l2
	CMPQ R13, $2
	JEQ  l1
	JMP  l0

// Each constant four times over, one 32-byte YMM operand apiece. The values
// are math.Log's (the defines of $GOROOT/src/math/log_amd64.s), written as
// that file writes them.
#define LANES(off, v) \
	DATA lconst<>+(off)(SB)/8, v; \
	DATA lconst<>+(off+8)(SB)/8, v; \
	DATA lconst<>+(off+16)(SB)/8, v; \
	DATA lconst<>+(off+24)(SB)/8, v

LANES(0, $0x000FFFFFFFFFFFFF)     // mantissa bits
LANES(32, $0.5)
LANES(64, $0x7FF0000000000000)    // +Inf's bits
LANES(96, $0x4330000000000000)    // 2**52's bits
LANES(128, $4503599627371518.0)   // 2**52 + 0x3FE
LANES(160, $7.07106781186547524401e-01) // HSqrt2
LANES(192, $1.0)
LANES(224, $2.0)
LANES(256, $1.479819860511658591e-01)   // L7
LANES(288, $1.818357216161805012e-01)   // L5
LANES(320, $2.857142874366239149e-01)   // L3
LANES(352, $6.666666666666735130e-01)   // L1
LANES(384, $1.531383769920937332e-01)   // L6
LANES(416, $2.222219843214978396e-01)   // L4
LANES(448, $3.999999999940941908e-01)   // L2
LANES(480, $1.90821492927058770002e-10) // Ln2Lo
LANES(512, $6.93147180369123816490e-01) // Ln2Hi
GLOBL lconst<>(SB), RODATA|NOPTR, $544

// LOG4 replaces each lane of Y0, positive and finite (its bits, as an
// int64, in (0, +Inf's)), by its logarithm in Y1, or jumps to fail unless
// every lane is. Each lane runs math.Log's amd64 sequence (archLog in
// $GOROOT/src/math/log_amd64.s) op for op: f1 and k from the bits, k -= 1
// and f1 *= 2 where CMPSD's predicate 5 finds HSqrt2 not less than f1, then
// the reduction and both polynomials with every VMULPD, VADDPD, VSUBPD and
// VDIVPD rounded on its own, never fused, as archLog's SSE2 operations are.
// k is exact either way: archLog converts an int32, the lanes subtract
// 2**52 + 0x3FE from 2**52 + the biased exponent. Y2–Y8 are clobbered.
#define LOG4 \
	VPXOR     Y7, Y7, Y7; \
	VPCMPGTQ  Y7, Y0, Y7; \
	VMOVUPD   lconst<>+64(SB), Y8; \
	VPCMPGTQ  Y0, Y8, Y8; \
	VPAND     Y8, Y7, Y7; \
	VMOVMSKPD Y7, AX; \
	CMPQ      AX, $15; \
	JNE       fail; \
	VANDPD    lconst<>+0(SB), Y0, Y2; \
	VORPD     lconst<>+32(SB), Y2, Y2; \
	VPSRLQ    $52, Y0, Y1; \
	VPOR      lconst<>+96(SB), Y1, Y1; \
	VSUBPD    lconst<>+128(SB), Y1, Y1; \
	VMOVUPD   lconst<>+160(SB), Y0; \
	VCMPPD    $5, Y2, Y0, Y0; \
	VANDPD    lconst<>+192(SB), Y0, Y3; \
	VSUBPD    Y3, Y1, Y1; \
	VADDPD    lconst<>+192(SB), Y3, Y3; \
	VMULPD    Y3, Y2, Y2; \
	VSUBPD    lconst<>+192(SB), Y2, Y2; \
	VADDPD    lconst<>+224(SB), Y2, Y0; \
	VDIVPD    Y0, Y2, Y3; \
	VMULPD    Y3, Y3, Y4; \
	VMULPD    Y4, Y4, Y5; \
	VMULPD    lconst<>+256(SB), Y5, Y6; \
	VADDPD    lconst<>+288(SB), Y6, Y6; \
	VMULPD    Y5, Y6, Y6; \
	VADDPD    lconst<>+320(SB), Y6, Y6; \
	VMULPD    Y5, Y6, Y6; \
	VADDPD    lconst<>+352(SB), Y6, Y6; \
	VMULPD    Y6, Y4, Y4; \
	VMULPD    lconst<>+384(SB), Y5, Y6; \
	VADDPD    lconst<>+416(SB), Y6, Y6; \
	VMULPD    Y5, Y6, Y6; \
	VADDPD    lconst<>+448(SB), Y6, Y6; \
	VMULPD    Y6, Y5, Y5; \
	VADDPD    Y5, Y4, Y4; \
	VMULPD    lconst<>+32(SB), Y2, Y0; \
	VMULPD    Y2, Y0, Y0; \
	VADDPD    Y0, Y4, Y4; \
	VMULPD    Y4, Y3, Y3; \
	VMULPD    lconst<>+480(SB), Y1, Y4; \
	VADDPD    Y4, Y3, Y3; \
	VSUBPD    Y3, Y0, Y0; \
	VSUBPD    Y2, Y0, Y0; \
	VMULPD    lconst<>+512(SB), Y1, Y1; \
	VSUBPD    Y0, Y1, Y1

// SUM4 adds Y1's lanes into X15 one at a time, lane 0 first.
#define SUM4 \
	VADDSD       X1, X15, X15; \
	VUNPCKHPD    X1, X1, X2; \
	VADDSD       X2, X15, X15; \
	VEXTRACTF128 $1, Y1, X2; \
	VADDSD       X2, X15, X15; \
	VUNPCKHPD    X2, X2, X2; \
	VADDSD       X2, X15, X15

// func logSumLanes(u []float64, step, n int) (s float64, ok bool)
//
// Returns Σ_{i<n} math.Log(u[i*step]), added from zero in ascending i, and
// true; or false unless every term is positive and finite, leaving those
// to math.Log. The terms go four to a YMM register (LOG4), a short last
// block filled up with ones, whose logarithms are +0 and leave the sum as
// it was: it starts at +0 and never becomes −0. The lanes are math.Log's
// bit for bit, so the sum is the scalar loop's.
TEXT ·logSumLanes(SB), NOSPLIT, $0-49
	MOVB   $0, ok+48(FP)
	MOVQ   u_base+0(FP), SI
	MOVQ   step+24(FP), R8
	MOVQ   n+32(FP), CX
	SHLQ   $3, R8              // R8 = bytes from one term to the next
	LEAQ   (R8)(R8*2), R9      // R9 = three terms
	VXORPD X15, X15, X15

block:
	CMPQ        CX, $4
	JLT         tail
	VMOVSD      (SI), X0
	VMOVHPD     (SI)(R8*1), X0, X0
	VMOVSD      (SI)(R8*2), X1
	VMOVHPD     (SI)(R9*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	LOG4
	SUM4
	LEAQ        (SI)(R8*4), SI
	SUBQ        $4, CX
	JMP         block

tail:
	TESTQ   CX, CX
	JZ      done
	VMOVUPD lconst<>+192(SB), X0
	VMOVUPD X0, X1
	VMOVLPD (SI), X0, X0
	CMPQ    CX, $2
	JLT     last
	VMOVHPD (SI)(R8*1), X0, X0
	CMPQ    CX, $3
	JLT     last
	VMOVLPD (SI)(R8*2), X1, X1

last:
	VINSERTF128 $1, X1, Y0, Y0
	LOG4
	SUM4

done:
	VMOVSD X15, s+40(FP)
	MOVB   $1, ok+48(FP)

fail:
	VZEROUPPER
	RET
