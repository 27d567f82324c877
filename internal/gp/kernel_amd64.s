#include "textflag.h"

// Each constant four times over, one 32-byte YMM operand apiece. The values
// and their use are math.Exp's (exprodata and the defines of
// $GOROOT/src/math/exp_amd64.s).
#define LANES(off, v) \
	DATA kconst<>+(off)(SB)/8, v; \
	DATA kconst<>+(off+8)(SB)/8, v; \
	DATA kconst<>+(off+16)(SB)/8, v; \
	DATA kconst<>+(off+24)(SB)/8, v

LANES(0, $0x8000000000000000)      // sign bit
LANES(32, $700.0)                  // |x| bound of the vector path
LANES(64, $1.4426950408889634073599246810018920)         // LOG2E
LANES(96, $0.69314718055966295651160180568695068359375)  // LN2U
LANES(128, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
LANES(160, $0.0625)
LANES(192, $2.4801587301587301587e-5)
LANES(224, $1.9841269841269841270e-4)
LANES(256, $1.3888888888888888889e-3)
LANES(288, $8.3333333333333333333e-3)
LANES(320, $4.1666666666666666667e-2)
LANES(352, $1.6666666666666666667e-1)
LANES(384, $0.5)
LANES(416, $1.0)
LANES(448, $2.0)
DATA kconst<>+480(SB)/8, $0x000003ff000003ff // exponent bias, four int32 lanes
DATA kconst<>+488(SB)/8, $0x000003ff000003ff
GLOBL kconst<>(SB), RODATA|NOPTR, $496

// func kernelRow4(dst, d2 []float64, s2, tl2 float64) int
//
// Writes s2*exp(-d2[j]/tl2) into dst[j] four lanes at a time, from j = 0,
// and returns how many it wrote: it stops before the first block of four
// that has an argument outside [-700, 700] or a NaN, and before a tail
// shorter than four. Each lane runs math.Exp's avxfma sequence. d2 must be
// at least as long as dst.
TEXT ·kernelRow4(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ d2_base+24(FP), SI
	VBROADCASTSD s2+48(FP), Y14
	VBROADCASTSD tl2+56(FP), Y15
	VMOVUPD kconst<>+0(SB), Y13
	XORQ AX, AX

loop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  done
	// x = -d2/tl2; leave the block to math.Exp unless every |x| <= 700
	VMOVUPD (SI)(AX*8), Y0
	VXORPD  Y13, Y0, Y0
	VDIVPD  Y15, Y0, Y0
	VANDNPD Y0, Y13, Y1
	VCMPPD  $0x12, kconst<>+32(SB), Y1, Y1 // |x| <= 700, false for NaN
	VMOVMSKPD Y1, BX
	CMPQ    BX, $15
	JNE     done
	// k = int32(x*LOG2E), rounded to nearest
	VMULPD    kconst<>+64(SB), Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD X2, Y1
	// r = (x - k*LN2U - k*LN2L) / 16
	VFNMADD231PD kconst<>+96(SB), Y1, Y0
	VFNMADD231PD kconst<>+128(SB), Y1, Y0
	VMULPD       kconst<>+160(SB), Y0, Y0
	// Taylor series
	VMOVUPD     kconst<>+192(SB), Y1
	VFMADD213PD kconst<>+224(SB), Y0, Y1
	VFMADD213PD kconst<>+256(SB), Y0, Y1
	VFMADD213PD kconst<>+288(SB), Y0, Y1
	VFMADD213PD kconst<>+320(SB), Y0, Y1
	VFMADD213PD kconst<>+352(SB), Y0, Y1
	VFMADD213PD kconst<>+384(SB), Y0, Y1
	VFMADD213PD kconst<>+416(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	// four squarings of 1+r, as r*(r+2)
	VADDPD      kconst<>+448(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      kconst<>+448(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      kconst<>+448(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      kconst<>+448(SB), Y0, Y1
	VFMADD213PD kconst<>+416(SB), Y1, Y0
	// times 2**k, then s2
	VPADDD    kconst<>+480(SB), X2, X2
	VPMOVZXDQ X2, Y2
	VPSLLQ    $52, Y2, Y2
	VMULPD    Y2, Y0, Y0
	VMULPD    Y14, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	MOVQ      DX, AX
	JMP       loop

done:
	VZEROUPPER
	MOVQ AX, ret+64(FP)
	RET

// func distancesLanes(t, x, d2 []float64)
//
// Writes into d2[j], for every j < n = len(d2), the squared distance from x
// to training row j, t holding the rows feature-major: feature f of row j
// at t[f*n+j], f < len(x). Rows go eight lanes, then four, at a time, each
// lane's sum held in a register through the whole feature loop, then one at
// a time. Per feature a broadcast of x[f], then VSUBPD, VMULPD and VADDPD,
// each rounded on its own and never fused, from a zeroed sum: sqDist's
// operations in its order.
TEXT ·distancesLanes(SB), NOSPLIT, $0-72
	MOVQ t_base+0(FP), SI   // SI = &t[0][j]
	MOVQ x_base+24(FP), DX
	MOVQ x_len+32(FP), CX   // CX = features
	MOVQ d2_base+48(FP), DI // DI = &d2[j]
	MOVQ d2_len+56(FP), BX  // BX = rows left
	MOVQ BX, R8
	SHLQ $3, R8             // R8 = bytes from t[f][j] to t[f+1][j]

block8:
	CMPQ   BX, $8
	JLT    block4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, R9
	MOVQ   DX, R10
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     store8

loop8:
	VBROADCASTSD (R10), Y2
	VMOVUPD      (R9), Y3
	VMOVUPD      32(R9), Y4
	VSUBPD       Y2, Y3, Y3
	VSUBPD       Y2, Y4, Y4
	VMULPD       Y3, Y3, Y3
	VMULPD       Y4, Y4, Y4
	VADDPD       Y3, Y0, Y0
	VADDPD       Y4, Y1, Y1
	ADDQ         R8, R9
	ADDQ         $8, R10
	DECQ         R11
	JNZ          loop8

store8:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, BX
	JMP     block8

block4:
	CMPQ   BX, $4
	JLT    block1
	VXORPD Y0, Y0, Y0
	MOVQ   SI, R9
	MOVQ   DX, R10
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     store4

loop4:
	VBROADCASTSD (R10), Y2
	VMOVUPD      (R9), Y3
	VSUBPD       Y2, Y3, Y3
	VMULPD       Y3, Y3, Y3
	VADDPD       Y3, Y0, Y0
	ADDQ         R8, R9
	ADDQ         $8, R10
	DECQ         R11
	JNZ          loop4

store4:
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, BX

block1:
	TESTQ  BX, BX
	JZ     done
	VXORPD X0, X0, X0
	MOVQ   SI, R9
	MOVQ   DX, R10
	MOVQ   CX, R11
	TESTQ  R11, R11
	JZ     store1

loop1:
	VMOVSD (R9), X3
	VSUBSD (R10), X3, X3
	VMULSD X3, X3, X3
	VADDSD X3, X0, X0
	ADDQ   R8, R9
	ADDQ   $8, R10
	DECQ   R11
	JNZ    loop1

store1:
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   BX
	JMP    block1

done:
	VZEROUPPER
	RET
