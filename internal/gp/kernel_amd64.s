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
