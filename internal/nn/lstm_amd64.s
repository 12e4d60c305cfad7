#include "textflag.h"

// Four copies of each constant the cell kernel needs, one per ymm lane.
#define CONST4(name, val) \
	DATA name<>+0(SB)/8, $val; \
	DATA name<>+8(SB)/8, $val; \
	DATA name<>+16(SB)/8, $val; \
	DATA name<>+24(SB)/8, $val; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(half, 0.5)
CONST4(one, 1.0)
CONST4(minusOne, -1.0)
CONST4(clampHi, 4.97)
CONST4(clampLo, -4.97)
CONST4(c135135, 135135.0)
CONST4(c17325, 17325.0)
CONST4(c378, 378.0)
CONST4(c62370, 62370.0)
CONST4(c3150, 3150.0)
CONST4(c28, 28.0)

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID                      // EAX = highest basic leaf
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX       // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV                     // EDX:EAX = XCR0
	ANDL $6, AX                // the OS saves xmm (bit 1) and ymm (bit 2)
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x20, BX            // AVX2 (bit 5)
	JZ   no
	MOVB $1, ret+0(FP)

no:
	RET

// MUL4(off, s0, s1, s2, s3) multiplies the 16 packed weights of one column
// at off(R8) by the broadcast x[j] in Y8 and adds the products into the
// four accumulators: VMULPD then VADDPD, never fused.
#define MUL4(off, s0, s1, s2, s3) \
	VMULPD off(R8), Y8, Y9; \
	VMULPD off+32(R8), Y8, Y10; \
	VMULPD off+64(R8), Y8, Y11; \
	VMULPD off+96(R8), Y8, Y12; \
	VADDPD Y9, s0, s0; \
	VADDPD Y10, s1, s1; \
	VADDPD Y11, s2, s2; \
	VADDPD Y12, s3, s3

// func affineAVX2(z, b, wp, v []float64)
//
// For every row r below len(z)&^15, sets z[r] = b[r] + dot(w[r*n:(r+1)*n], v)
// with n = len(v), reading w column-packed: per block of 16 rows, column j
// is the 16 doubles at wp[(blk*n+j)*16:]. Each block keeps two sets of four
// ymm accumulators, 16 rows each: S0 (Y0-Y3) sums the products of the even
// columns and then the odd-length tail, S1 (Y4-Y7) those of the odd
// columns. That is dot's s0/s1 order exactly, as vertical adds, and the
// block ends z = b + (S0 + S1), so every z[r] has the same bits as the Go
// loop. b may be z itself. The caller has checked len(b) == len(z) and
// len(wp) == (len(z)&^15)*len(v).
TEXT ·affineAVX2(SB), NOSPLIT, $0-96
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), AX
	SHRQ $4, AX                // blocks of 16 rows
	JZ   done
	MOVQ b_base+24(FP), SI
	MOVQ wp_base+48(FP), R8    // advances through every column of every block
	MOVQ v_base+72(FP), R13
	MOVQ v_len+80(FP), CX

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ R13, R11
	MOVQ CX, BX
	SHRQ $1, BX                // column pairs
	JZ   tail

pairs:
	VBROADCASTSD (R11), Y8
	MUL4(0, Y0, Y1, Y2, Y3)
	VBROADCASTSD 8(R11), Y8
	MUL4(128, Y4, Y5, Y6, Y7)
	ADDQ $256, R8
	ADDQ $16, R11
	DECQ BX
	JNZ  pairs

tail:
	TESTQ $1, CX
	JZ   reduce
	VBROADCASTSD (R11), Y8
	MUL4(0, Y0, Y1, Y2, Y3)
	ADDQ $128, R8

reduce:
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VADDPD (SI), Y0, Y0
	VADDPD 32(SI), Y1, Y1
	VADDPD 64(SI), Y2, Y2
	VADDPD 96(SI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ AX
	JNZ  block
	VZEROUPPER

done:
	RET

// TANH(x, x2, a, b) sets a = tanh(x) lane by lane in exactly nn.tanh's
// operation order: x2 = x*x,
// a = x*(135135 + x2*(17325 + x2*(378 + x2))),
// b = 135135 + x2*(62370 + x2*(3150 + x2*28)), a = a/b, then 1 where
// x > 4.97 and -1 where x < -4.97 (ordered compares: NaN stays NaN, ±Inf
// gives ±1). x is kept; x2 and b are clobbered.
#define TANH(x, x2, a, b) \
	VMULPD x, x, x2; \
	VADDPD c378<>(SB), x2, a; \
	VMULPD x2, a, a; \
	VADDPD c17325<>(SB), a, a; \
	VMULPD x2, a, a; \
	VADDPD c135135<>(SB), a, a; \
	VMULPD x, a, a; \
	VMULPD c28<>(SB), x2, b; \
	VADDPD c3150<>(SB), b, b; \
	VMULPD x2, b, b; \
	VADDPD c62370<>(SB), b, b; \
	VMULPD x2, b, b; \
	VADDPD c135135<>(SB), b, b; \
	VDIVPD b, a, a; \
	VCMPPD $0x1e, clampHi<>(SB), x, b; \
	VBLENDVPD b, one<>(SB), a, a; \
	VCMPPD $0x11, clampLo<>(SB), x, b; \
	VBLENDVPD b, minusOne<>(SB), a, a

// SIGMOID(x, t, x2, a, b) sets x = 0.5 + 0.5*tanh(0.5*x), nn.sigmoid's
// order; t, x2, a and b are clobbered.
#define SIGMOID(x, t, x2, a, b) \
	VMULPD half<>(SB), x, t; \
	TANH(t, x2, a, b); \
	VMULPD half<>(SB), a, a; \
	VADDPD half<>(SB), a, x

// func cellAVX2(z, c, h []float64)
//
// For every unit j below H&^3 with H = len(c), four units per step:
// ig, fg, og = sigmoid(z[j], z[H+j], z[3H+j]), gg = tanh(z[2H+j]),
// c[j] = fg*c[j] + ig*gg (two VMULPD and one VADDPD), h[j] = og*tanh(c[j]).
// That is cellRows' order, so every lane has the same bits as the Go loop.
// The caller has checked len(z) == 4*len(c) and len(h) == len(c).
TEXT ·cellAVX2(SB), NOSPLIT, $0-72
	MOVQ c_len+32(FP), DX
	MOVQ DX, CX
	SHRQ $2, CX                // groups of 4 units
	JZ   none
	MOVQ z_base+0(FP), DI      // z[j]
	MOVQ c_base+24(FP), SI
	MOVQ h_base+48(FP), R11
	SHLQ $3, DX                // gate stride in bytes, 8H
	LEAQ (DI)(DX*2), R10
	ADDQ DX, R10               // z[3H+j]

unit:
	VMOVUPD (DI), Y0
	SIGMOID(Y0, Y4, Y5, Y6, Y7)
	VMOVUPD (DI)(DX*1), Y1
	SIGMOID(Y1, Y4, Y5, Y6, Y7)
	VMOVUPD (DI)(DX*2), Y2
	TANH(Y2, Y5, Y3, Y7)
	VMULPD (SI), Y1, Y1        // fg*c
	VMULPD Y3, Y0, Y0          // ig*gg
	VADDPD Y0, Y1, Y1
	VMOVUPD Y1, (SI)
	TANH(Y1, Y5, Y2, Y7)
	VMOVUPD (R10), Y3
	SIGMOID(Y3, Y4, Y5, Y6, Y7)
	VMULPD Y2, Y3, Y3          // og*tanh(c)
	VMOVUPD Y3, (R11)
	ADDQ $32, DI
	ADDQ $32, R10
	ADDQ $32, SI
	ADDQ $32, R11
	DECQ CX
	JNZ  unit
	VZEROUPPER

none:
	RET
