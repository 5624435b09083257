// AVX2 butterfly primitives for the SIMD codelet backend: 4 float64s
// or 8 float32s per YMM register.  Loads and stores are unaligned
// (VMOVUPD/VMOVUPS) because stage bases and strides are arbitrary.
//
// Two families live here.  The whole-pass kernels carry the
// contiguous and interleaved tiers: vecHead* runs every butterfly
// level below four vectors (h = 1 .. 2*width) of each 4-register chunk
// in registers (or the whole transform of a one- or two-register
// span), and vecPass2* / vecPass4* run one whole radix-2 or radix-4
// pass at half-distance h >= width over a contiguous span, with the
// block loop inside the assembly, so a transform costs one call per
// pass rather than one per block.  The run kernels (vecAddSub*,
// vecBfly4x*, vecBfly8x*) apply one radix across parallel unit-stride
// runs for the range, SoA and chunked strided drivers in simd.go.
// Element counts are positive multiples of the vector width (for
// vecHead*: one, two, or a multiple of four vectors); the Go drivers
// guarantee it.
//
// Operand order.  Go assembly reverses the Intel order, so
// VSUBPD Y1, Y0, Y2 computes Y2 = Y0 - Y1.  Every butterfly keeps the
// scalar loops' lower+upper / lower-upper order with the lower operand
// as the first source: x86 returns the first source's payload when
// both operands are NaN, so this keeps NaN payloads, like every other
// bit, equal to the Generic* loops.  The in-register head levels pair
// a register x with its lane swap s (VPERMILPD/VPERMILPS within
// 128-bit lanes, VPERM2F128 across them).  The sum x+s is kept in the
// lanes where x holds the lower element, the difference s-x in the
// lanes where s holds it, and VBLENDPD/VBLENDPS merges the two — so
// the lower element is the first source in every kept lane.  Levels
// run in increasing h, the scalar order.

#include "textflag.h"

// func vecAddSub64(lo, hi *float64, n int)
// Radix-2: lo[k], hi[k] = lo[k]+hi[k], lo[k]-hi[k] for k < n (n % 4 == 0).
TEXT ·vecAddSub64(SB), NOSPLIT, $0-24
	MOVQ lo+0(FP), DI
	MOVQ hi+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

addsub64_loop:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y1
	VADDPD  Y1, Y0, Y2
	VSUBPD  Y1, Y0, Y3
	VMOVUPD Y2, (DI)(AX*8)
	VMOVUPD Y3, (SI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      addsub64_loop
	VZEROUPPER
	RET

// func vecAddSub32(lo, hi *float32, n int)
// Radix-2 over float32 streams (n % 8 == 0).
TEXT ·vecAddSub32(SB), NOSPLIT, $0-24
	MOVQ lo+0(FP), DI
	MOVQ hi+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

addsub32_loop:
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS (SI)(AX*4), Y1
	VADDPS  Y1, Y0, Y2
	VSUBPS  Y1, Y0, Y3
	VMOVUPS Y2, (DI)(AX*4)
	VMOVUPS Y3, (SI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JL      addsub32_loop
	VZEROUPPER
	RET

// func vecBfly4x64(q0, q1, q2, q3 *float64, n int)
// Radix-4: two butterfly levels over four float64 streams (n % 4 == 0),
// matching GenericILFused's fused pass:
//	e, f = q0+q1, q0-q1; g, h = q2+q3, q2-q3
//	q0, q1, q2, q3 = e+g, f+h, e-g, f-h
TEXT ·vecBfly4x64(SB), NOSPLIT, $0-40
	MOVQ q0+0(FP), DI
	MOVQ q1+8(FP), SI
	MOVQ q2+16(FP), DX
	MOVQ q3+24(FP), BX
	MOVQ n+32(FP), CX
	XORQ AX, AX

bfly4x64_loop:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD (DX)(AX*8), Y2
	VMOVUPD (BX)(AX*8), Y3
	VADDPD  Y1, Y0, Y4  // e = a+b
	VSUBPD  Y1, Y0, Y5  // f = a-b
	VADDPD  Y3, Y2, Y6  // g = c+d
	VSUBPD  Y3, Y2, Y7  // h = c-d
	VADDPD  Y6, Y4, Y8  // e+g
	VADDPD  Y7, Y5, Y9  // f+h
	VSUBPD  Y6, Y4, Y10 // e-g
	VSUBPD  Y7, Y5, Y11 // f-h
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y9, (SI)(AX*8)
	VMOVUPD Y10, (DX)(AX*8)
	VMOVUPD Y11, (BX)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      bfly4x64_loop
	VZEROUPPER
	RET

// func vecBfly4x32(q0, q1, q2, q3 *float32, n int)
// Radix-4 over float32 streams (n % 8 == 0).
TEXT ·vecBfly4x32(SB), NOSPLIT, $0-40
	MOVQ q0+0(FP), DI
	MOVQ q1+8(FP), SI
	MOVQ q2+16(FP), DX
	MOVQ q3+24(FP), BX
	MOVQ n+32(FP), CX
	XORQ AX, AX

bfly4x32_loop:
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS (SI)(AX*4), Y1
	VMOVUPS (DX)(AX*4), Y2
	VMOVUPS (BX)(AX*4), Y3
	VADDPS  Y1, Y0, Y4
	VSUBPS  Y1, Y0, Y5
	VADDPS  Y3, Y2, Y6
	VSUBPS  Y3, Y2, Y7
	VADDPS  Y6, Y4, Y8
	VADDPS  Y7, Y5, Y9
	VSUBPS  Y6, Y4, Y10
	VSUBPS  Y7, Y5, Y11
	VMOVUPS Y8, (DI)(AX*4)
	VMOVUPS Y9, (SI)(AX*4)
	VMOVUPS Y10, (DX)(AX*4)
	VMOVUPS Y11, (BX)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JL      bfly4x32_loop
	VZEROUPPER
	RET

// func vecBfly8x64(p0, p1, p2, p3, p4, p5, p6, p7 *float64, n int)
// Radix-8: three butterfly levels over eight float64 streams
// (n % 4 == 0), matching GenericILFusedRange's fused pass — level 1
// pairs (p0,p1)(p2,p3)(p4,p5)(p6,p7), level 2 pairs b-values two
// apart, level 3 pairs c-values four apart.
TEXT ·vecBfly8x64(SB), NOSPLIT, $0-72
	MOVQ p0+0(FP), DI
	MOVQ p1+8(FP), SI
	MOVQ p2+16(FP), DX
	MOVQ p3+24(FP), BX
	MOVQ p4+32(FP), R8
	MOVQ p5+40(FP), R9
	MOVQ p6+48(FP), R10
	MOVQ p7+56(FP), R11
	MOVQ n+64(FP), CX
	XORQ AX, AX

bfly8x64_loop:
	VMOVUPD (DI)(AX*8), Y0   // a0
	VMOVUPD (SI)(AX*8), Y1   // a1
	VMOVUPD (DX)(AX*8), Y2   // a2
	VMOVUPD (BX)(AX*8), Y3   // a3
	VMOVUPD (R8)(AX*8), Y4   // a4
	VMOVUPD (R9)(AX*8), Y5   // a5
	VMOVUPD (R10)(AX*8), Y6  // a6
	VMOVUPD (R11)(AX*8), Y7  // a7
	VADDPD  Y1, Y0, Y8       // b0 = a0+a1
	VSUBPD  Y1, Y0, Y9       // b1 = a0-a1
	VADDPD  Y3, Y2, Y10      // b2 = a2+a3
	VSUBPD  Y3, Y2, Y11      // b3 = a2-a3
	VADDPD  Y5, Y4, Y12      // b4 = a4+a5
	VSUBPD  Y5, Y4, Y13      // b5 = a4-a5
	VADDPD  Y7, Y6, Y14      // b6 = a6+a7
	VSUBPD  Y7, Y6, Y15      // b7 = a6-a7
	VADDPD  Y10, Y8, Y0      // c0 = b0+b2
	VSUBPD  Y10, Y8, Y2      // c2 = b0-b2
	VADDPD  Y11, Y9, Y1      // c1 = b1+b3
	VSUBPD  Y11, Y9, Y3      // c3 = b1-b3
	VADDPD  Y14, Y12, Y4     // c4 = b4+b6
	VSUBPD  Y14, Y12, Y6     // c6 = b4-b6
	VADDPD  Y15, Y13, Y5     // c5 = b5+b7
	VSUBPD  Y15, Y13, Y7     // c7 = b5-b7
	VADDPD  Y4, Y0, Y8       // c0+c4
	VSUBPD  Y4, Y0, Y12      // c0-c4
	VADDPD  Y5, Y1, Y9       // c1+c5
	VSUBPD  Y5, Y1, Y13      // c1-c5
	VADDPD  Y6, Y2, Y10      // c2+c6
	VSUBPD  Y6, Y2, Y14      // c2-c6
	VADDPD  Y7, Y3, Y11      // c3+c7
	VSUBPD  Y7, Y3, Y15      // c3-c7
	VMOVUPD Y8, (DI)(AX*8)
	VMOVUPD Y9, (SI)(AX*8)
	VMOVUPD Y10, (DX)(AX*8)
	VMOVUPD Y11, (BX)(AX*8)
	VMOVUPD Y12, (R8)(AX*8)
	VMOVUPD Y13, (R9)(AX*8)
	VMOVUPD Y14, (R10)(AX*8)
	VMOVUPD Y15, (R11)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      bfly8x64_loop
	VZEROUPPER
	RET

// func vecBfly8x32(p0, p1, p2, p3, p4, p5, p6, p7 *float32, n int)
// Radix-8 over float32 streams (n % 8 == 0).
TEXT ·vecBfly8x32(SB), NOSPLIT, $0-72
	MOVQ p0+0(FP), DI
	MOVQ p1+8(FP), SI
	MOVQ p2+16(FP), DX
	MOVQ p3+24(FP), BX
	MOVQ p4+32(FP), R8
	MOVQ p5+40(FP), R9
	MOVQ p6+48(FP), R10
	MOVQ p7+56(FP), R11
	MOVQ n+64(FP), CX
	XORQ AX, AX

bfly8x32_loop:
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS (SI)(AX*4), Y1
	VMOVUPS (DX)(AX*4), Y2
	VMOVUPS (BX)(AX*4), Y3
	VMOVUPS (R8)(AX*4), Y4
	VMOVUPS (R9)(AX*4), Y5
	VMOVUPS (R10)(AX*4), Y6
	VMOVUPS (R11)(AX*4), Y7
	VADDPS  Y1, Y0, Y8
	VSUBPS  Y1, Y0, Y9
	VADDPS  Y3, Y2, Y10
	VSUBPS  Y3, Y2, Y11
	VADDPS  Y5, Y4, Y12
	VSUBPS  Y5, Y4, Y13
	VADDPS  Y7, Y6, Y14
	VSUBPS  Y7, Y6, Y15
	VADDPS  Y10, Y8, Y0
	VSUBPS  Y10, Y8, Y2
	VADDPS  Y11, Y9, Y1
	VSUBPS  Y11, Y9, Y3
	VADDPS  Y14, Y12, Y4
	VSUBPS  Y14, Y12, Y6
	VADDPS  Y15, Y13, Y5
	VSUBPS  Y15, Y13, Y7
	VADDPS  Y4, Y0, Y8
	VSUBPS  Y4, Y0, Y12
	VADDPS  Y5, Y1, Y9
	VSUBPS  Y5, Y1, Y13
	VADDPS  Y6, Y2, Y10
	VSUBPS  Y6, Y2, Y14
	VADDPS  Y7, Y3, Y11
	VSUBPS  Y7, Y3, Y15
	VMOVUPS Y8, (DI)(AX*4)
	VMOVUPS Y9, (SI)(AX*4)
	VMOVUPS Y10, (DX)(AX*4)
	VMOVUPS Y11, (BX)(AX*4)
	VMOVUPS Y12, (R8)(AX*4)
	VMOVUPS Y13, (R9)(AX*4)
	VMOVUPS Y14, (R10)(AX*4)
	VMOVUPS Y15, (R11)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JL      bfly8x32_loop
	VZEROUPPER
	RET

// HEAD64 runs butterfly levels h = 1 and h = 2 on the float64 register
// R, using temporaries T0-T2.  Level 1 swaps within 128-bit lanes
// (T0 = [x1 x0 x3 x2]): R+T0 holds x0+x1, x2+x3 in lanes 0, 2 and
// T0-R holds x0-x1, x2-x3 in lanes 1, 3.  Level 2 swaps the halves
// (T0 = [x2 x3 x0 x1]): R+T0 is kept in lanes 0, 1, T0-R in lanes 2, 3.
#define HEAD64(R, T0, T1, T2) \
	VPERMILPD  $0x05, R, T0; \
	VADDPD     T0, R, T1; \
	VSUBPD     R, T0, T2; \
	VBLENDPD   $0x0a, T2, T1, R; \
	VPERM2F128 $0x01, R, R, T0; \
	VADDPD     T0, R, T1; \
	VSUBPD     R, T0, T2; \
	VBLENDPD   $0x0c, T2, T1, R

// HEAD32 runs butterfly levels h = 1, 2 and 4 on the float32 register
// R the same way: swap adjacent elements, element pairs, then 128-bit
// halves, each followed by sum, difference and a blend of the lanes
// holding the upper results.
#define HEAD32(R, T0, T1, T2) \
	VPERMILPS  $0xb1, R, T0; \
	VADDPS     T0, R, T1; \
	VSUBPS     R, T0, T2; \
	VBLENDPS   $0xaa, T2, T1, R; \
	VPERMILPS  $0x4e, R, T0; \
	VADDPS     T0, R, T1; \
	VSUBPS     R, T0, T2; \
	VBLENDPS   $0xcc, T2, T1, R; \
	VPERM2F128 $0x01, R, R, T0; \
	VADDPS     T0, R, T1; \
	VSUBPS     R, T0, T2; \
	VBLENDPS   $0xf0, T2, T1, R

// func vecHead64(v []float64)
// Every butterfly level below four vectors, in registers: an
// independent WHT(16) on each 16-element chunk of v (len(v) % 16 == 0)
// — levels h = 1, 2 in registers, then h = 4, 8 as one radix-4
// butterfly across the four — or, for len(v) of 8 or 4, the whole
// WHT(len(v)) on two registers or one.
TEXT ·vecHead64(SB), NOSPLIT, $0-24
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	CMPQ CX, $16
	JB   head64_small
	LEAQ (DI)(CX*8), CX

head64_loop:
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	HEAD64(Y0, Y4, Y5, Y6)
	HEAD64(Y1, Y7, Y8, Y9)
	HEAD64(Y2, Y10, Y11, Y12)
	HEAD64(Y3, Y13, Y14, Y15)
	VADDPD  Y1, Y0, Y4
	VSUBPD  Y1, Y0, Y5
	VADDPD  Y3, Y2, Y6
	VSUBPD  Y3, Y2, Y7
	VADDPD  Y6, Y4, Y8
	VADDPD  Y7, Y5, Y9
	VSUBPD  Y6, Y4, Y10
	VSUBPD  Y7, Y5, Y11
	VMOVUPD Y8, 0(DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, 64(DI)
	VMOVUPD Y11, 96(DI)
	ADDQ    $128, DI
	CMPQ    DI, CX
	JB      head64_loop
	VZEROUPPER
	RET

head64_small:
	VMOVUPD 0(DI), Y0
	HEAD64(Y0, Y4, Y5, Y6)
	CMPQ    CX, $8
	JB      head64_one
	VMOVUPD 32(DI), Y1
	HEAD64(Y1, Y7, Y8, Y9)
	VADDPD  Y1, Y0, Y2
	VSUBPD  Y1, Y0, Y3
	VMOVUPD Y2, 0(DI)
	VMOVUPD Y3, 32(DI)
	VZEROUPPER
	RET

head64_one:
	VMOVUPD Y0, 0(DI)
	VZEROUPPER
	RET

// func vecHead32(v []float32)
// The float32 head: an independent WHT(32) on each 32-element chunk of
// v (len(v) % 32 == 0) — levels h = 1, 2, 4 in registers, then h = 8,
// 16 as one radix-4 butterfly across the four — or, for len(v) of 16
// or 8, the whole WHT(len(v)) on two registers or one.
TEXT ·vecHead32(SB), NOSPLIT, $0-24
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	CMPQ CX, $32
	JB   head32_small
	LEAQ (DI)(CX*4), CX

head32_loop:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	HEAD32(Y0, Y4, Y5, Y6)
	HEAD32(Y1, Y7, Y8, Y9)
	HEAD32(Y2, Y10, Y11, Y12)
	HEAD32(Y3, Y13, Y14, Y15)
	VADDPS  Y1, Y0, Y4
	VSUBPS  Y1, Y0, Y5
	VADDPS  Y3, Y2, Y6
	VSUBPS  Y3, Y2, Y7
	VADDPS  Y6, Y4, Y8
	VADDPS  Y7, Y5, Y9
	VSUBPS  Y6, Y4, Y10
	VSUBPS  Y7, Y5, Y11
	VMOVUPS Y8, 0(DI)
	VMOVUPS Y9, 32(DI)
	VMOVUPS Y10, 64(DI)
	VMOVUPS Y11, 96(DI)
	ADDQ    $128, DI
	CMPQ    DI, CX
	JB      head32_loop
	VZEROUPPER
	RET

head32_small:
	VMOVUPS 0(DI), Y0
	HEAD32(Y0, Y4, Y5, Y6)
	CMPQ    CX, $16
	JB      head32_one
	VMOVUPS 32(DI), Y1
	HEAD32(Y1, Y7, Y8, Y9)
	VADDPS  Y1, Y0, Y2
	VSUBPS  Y1, Y0, Y3
	VMOVUPS Y2, 0(DI)
	VMOVUPS Y3, 32(DI)
	VZEROUPPER
	RET

head32_one:
	VMOVUPS Y0, 0(DI)
	VZEROUPPER
	RET

// func vecPass2x64(v []float64, h int)
// One radix-2 pass at half-distance h over v: for every block of 2h
// elements, lo, hi = lo+hi, lo-hi across its two halves (h % 4 == 0,
// len(v) % 2h == 0).
TEXT ·vecPass2x64(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ h+24(FP), DX
	LEAQ (DI)(CX*8), CX // end of span
	SHLQ $3, DX         // h in bytes

pass2x64_block:
	MOVQ DI, SI
	LEAQ (DI)(DX*1), R8 // end of the block's lower half

pass2x64_run:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(DX*1), Y1
	VADDPD  Y1, Y0, Y2
	VSUBPD  Y1, Y0, Y3
	VMOVUPD Y2, (SI)
	VMOVUPD Y3, (SI)(DX*1)
	ADDQ    $32, SI
	CMPQ    SI, R8
	JB      pass2x64_run
	LEAQ    (R8)(DX*1), DI
	CMPQ    DI, CX
	JB      pass2x64_block
	VZEROUPPER
	RET

// func vecPass2x32(v []float32, h int)
// The float32 radix-2 pass (h % 8 == 0, len(v) % 2h == 0).
TEXT ·vecPass2x32(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ h+24(FP), DX
	LEAQ (DI)(CX*4), CX
	SHLQ $2, DX

pass2x32_block:
	MOVQ DI, SI
	LEAQ (DI)(DX*1), R8

pass2x32_run:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(DX*1), Y1
	VADDPS  Y1, Y0, Y2
	VSUBPS  Y1, Y0, Y3
	VMOVUPS Y2, (SI)
	VMOVUPS Y3, (SI)(DX*1)
	ADDQ    $32, SI
	CMPQ    SI, R8
	JB      pass2x32_run
	LEAQ    (R8)(DX*1), DI
	CMPQ    DI, CX
	JB      pass2x32_block
	VZEROUPPER
	RET

// func vecPass4x64(v []float64, h int)
// One radix-4 pass (levels h and 2h) over v: for every block of 4h
// elements, the vecBfly4x64 butterfly across its four quarters
// (h % 4 == 0, len(v) % 4h == 0).
TEXT ·vecPass4x64(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ h+24(FP), DX
	LEAQ (DI)(CX*8), CX
	SHLQ $3, DX
	LEAQ (DX)(DX*2), R9 // 3h in bytes

pass4x64_block:
	MOVQ DI, SI
	LEAQ (DI)(DX*1), R8

pass4x64_run:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(DX*1), Y1
	VMOVUPD (SI)(DX*2), Y2
	VMOVUPD (SI)(R9*1), Y3
	VADDPD  Y1, Y0, Y4
	VSUBPD  Y1, Y0, Y5
	VADDPD  Y3, Y2, Y6
	VSUBPD  Y3, Y2, Y7
	VADDPD  Y6, Y4, Y8
	VADDPD  Y7, Y5, Y9
	VSUBPD  Y6, Y4, Y10
	VSUBPD  Y7, Y5, Y11
	VMOVUPD Y8, (SI)
	VMOVUPD Y9, (SI)(DX*1)
	VMOVUPD Y10, (SI)(DX*2)
	VMOVUPD Y11, (SI)(R9*1)
	ADDQ    $32, SI
	CMPQ    SI, R8
	JB      pass4x64_run
	LEAQ    (DI)(DX*4), DI
	CMPQ    DI, CX
	JB      pass4x64_block
	VZEROUPPER
	RET

// func vecPass4x32(v []float32, h int)
// The float32 radix-4 pass (h % 8 == 0, len(v) % 4h == 0).
TEXT ·vecPass4x32(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ h+24(FP), DX
	LEAQ (DI)(CX*4), CX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R9

pass4x32_block:
	MOVQ DI, SI
	LEAQ (DI)(DX*1), R8

pass4x32_run:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(DX*1), Y1
	VMOVUPS (SI)(DX*2), Y2
	VMOVUPS (SI)(R9*1), Y3
	VADDPS  Y1, Y0, Y4
	VSUBPS  Y1, Y0, Y5
	VADDPS  Y3, Y2, Y6
	VSUBPS  Y3, Y2, Y7
	VADDPS  Y6, Y4, Y8
	VADDPS  Y7, Y5, Y9
	VSUBPS  Y6, Y4, Y10
	VSUBPS  Y7, Y5, Y11
	VMOVUPS Y8, (SI)
	VMOVUPS Y9, (SI)(DX*1)
	VMOVUPS Y10, (SI)(DX*2)
	VMOVUPS Y11, (SI)(R9*1)
	ADDQ    $32, SI
	CMPQ    SI, R8
	JB      pass4x32_run
	LEAQ    (DI)(DX*4), DI
	CMPQ    DI, CX
	JB      pass4x32_block
	VZEROUPPER
	RET
