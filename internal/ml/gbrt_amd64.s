#include "textflag.h"

// -Inf four times, then the tail masks: the four quadwords from byte offset
// 8*(4-r) have their first r lanes all ones.
DATA sconst<>+0(SB)/8, $0xfff0000000000000
DATA sconst<>+8(SB)/8, $0xfff0000000000000
DATA sconst<>+16(SB)/8, $0xfff0000000000000
DATA sconst<>+24(SB)/8, $0xfff0000000000000
DATA sconst<>+32(SB)/8, $-1
DATA sconst<>+40(SB)/8, $-1
DATA sconst<>+48(SB)/8, $-1
DATA sconst<>+56(SB)/8, $-1
DATA sconst<>+64(SB)/8, $0
DATA sconst<>+72(SB)/8, $0
DATA sconst<>+80(SB)/8, $0
DATA sconst<>+88(SB)/8, $0
GLOBL sconst<>(SB), RODATA|NOPTR, $96

// SCREEN computes, for the four positions whose prefix sums are in Y0,
// words in Y1, next words in Y2, 1/lcnt in Y3 and 1/rcnt in Y4,
//
//	q̃ = ls·ls·(1/lcnt) + (sum−ls)·(sum−ls)·(1/rcnt)
//
// with VSUBPD, VMULPD and VADDPD, each rounded on its own and never fused,
// sets the lanes whose two words share a rank (a split between equal values)
// to −Inf, and leaves in BX the mask of lanes with NOT(q̃ ≤ lim): NLE_UQ, so
// a NaN is flagged too.
#define SCREEN \
	VSUBPD    Y0, Y14, Y5; \
	VMULPD    Y0, Y0, Y0; \
	VMULPD    Y3, Y0, Y0; \
	VMULPD    Y5, Y5, Y5; \
	VMULPD    Y4, Y5, Y5; \
	VADDPD    Y5, Y0, Y0; \
	VPXOR     Y2, Y1, Y1; \
	VPSRLQ    $32, Y1, Y1; \
	VPCMPEQQ  Y12, Y1, Y1; \
	VBLENDVPD Y1, Y13, Y0, Y0; \
	VCMPPD    $0x16, Y15, Y0, Y0; \
	VMOVMSKPD Y0, BX

// func screenLanes(ls []float64, w []uint64, il, ir []float64, sum, lim float64) int
//
// Screens the split positions j < m = len(ls) of one feature's window, four
// lanes at a time, and returns the first j of the first block that holds a
// flagged lane, or m. Position j's prefix sum is ls[j], its words w[j] and
// w[j+1], its reciprocal counts il[j] and ir[j]; w must hold m+1 words, il
// and ir m values. The last m % 4 positions take masked loads, whose other
// lanes read zero words and so count as ties.
//
// The bound. Let u = 2⁻⁵³, a = fl(ls·ls), b = fl(rs·rs) with rs = fl(sum−ls),
// l and r the counts, and T = fl(best + 1e-12) ≥ 1e-12 the value replay
// compares against. replay computes A = fl(a/l), B = fl(b/r), q = fl(A+B)
// and takes the split only if fl(q − parent) > T; this kernel computes
// A' = fl(a·fl(1/l)), B' likewise and q̃ = fl(A'+B'). Each rounding errs by
// at most u relatively, or by 2⁻¹⁰⁷⁵ absolutely where its result is
// subnormal, so, with η the few subnormal units of absolute error,
//
//	fl(a/l) ≤ fl(a·fl(1/l))·(1+u)/(1−u)² + η ≤ fl(a·fl(1/l))·(1+3u+5u²) + η
//
// and q ≤ (A'+B')(1+3u+5u²)(1+u) + η ≤ q̃(1+7u) + η. splitLimit passes
// lim = fl(fl(T+parent)·c), c = fl(1 − 1e-13), so q̃ ≤ lim gives
// q ≤ (T+parent)(1+u)³(1−1e-13)(1+7u) + η < (T+parent)(1 − 9e-14) + η,
// and since T+parent ≥ 1e-12, 9e-14·(T+parent) ≫ η: q < T+parent, hence
// fl(q − parent) ≤ T because rounding is monotone and T is a double. The
// 1e-13 margin is 1e-13 ≫ 10u ≈ 1.1e-15. Where T+parent overflows,
// splitLimit caps it at MaxFloat64, so q̃ ≤ lim keeps q finite and below
// the overflowing T+parent. An infinite or NaN q̃ is always flagged, and a
// flagged block is only replayed: no lane decides a split, it can only send
// its block to replay.
TEXT ·screenLanes(SB), NOSPLIT, $0-120
	MOVQ ls_base+0(FP), SI
	MOVQ ls_len+8(FP), CX
	MOVQ w_base+24(FP), DI
	MOVQ il_base+48(FP), R8
	MOVQ ir_base+72(FP), R9
	VBROADCASTSD sum+96(FP), Y14
	VBROADCASTSD lim+104(FP), Y15
	VMOVUPD sconst<>+0(SB), Y13
	VPXOR   Y12, Y12, Y12
	XORQ    AX, AX

loop:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     tail
	VMOVUPD (SI)(AX*8), Y0
	VMOVDQU (DI)(AX*8), Y1
	VMOVDQU 8(DI)(AX*8), Y2
	VMOVUPD (R8)(AX*8), Y3
	VMOVUPD (R9)(AX*8), Y4
	SCREEN
	TESTQ   BX, BX
	JNZ     done
	MOVQ    DX, AX
	JMP     loop

tail:
	MOVQ       CX, DX
	SUBQ       AX, DX
	JZ         done
	// Y11 = the mask of the DX < 4 positions left
	LEAQ       sconst<>+64(SB), R10
	NEGQ       DX
	VMOVDQU    (R10)(DX*8), Y11
	VMASKMOVPD (SI)(AX*8), Y11, Y0
	VPMASKMOVQ (DI)(AX*8), Y11, Y1
	VPMASKMOVQ 8(DI)(AX*8), Y11, Y2
	VMASKMOVPD (R8)(AX*8), Y11, Y3
	VMASKMOVPD (R9)(AX*8), Y11, Y4
	SCREEN
	TESTQ      BX, BX
	JNZ        done
	MOVQ       CX, AX

done:
	VZEROUPPER
	MOVQ AX, ret+112(FP)
	RET
