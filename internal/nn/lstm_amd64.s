#include "textflag.h"

// Four copies of each constant the cell and gate-gradient kernels need,
// one per ymm lane.
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

// func cellAVX2(z, cPrev, c, tc, h []float64)
//
// For every unit j below H&^3 with H = len(c), four units per step, in two
// passes. The first stores the gates over their pre-activations in z:
// i, f, o = sigmoid(z[j], z[H+j], z[3H+j]) and g = tanh(z[2H+j]). The
// second sets c[j] = f*cPrev[j] + i*g (two VMULPD and one VADDPD),
// tc[j] = tanh(c[j]) and h[j] = o*tc[j]. That is cellRows' order, so every
// lane has the same bits as the Go loop. Two passes, not one, because
// each group's gates are independent of the others': the CPU overlaps
// them, where one pass would wait for each group's c before its tanh(c).
// cPrev may be c: each group reads cPrev before it writes c. The caller has
// checked len(z) == 4*len(c) and that cPrev, tc and h have len(c).
TEXT ·cellAVX2(SB), NOSPLIT, $0-120
	MOVQ c_len+56(FP), DX
	MOVQ DX, CX
	SHRQ $2, CX                // groups of 4 units
	JZ   none
	MOVQ z_base+0(FP), DI      // z[j]
	SHLQ $3, DX                // gate stride in bytes, 8H
	LEAQ (DI)(DX*2), R10
	ADDQ DX, R10               // z[3H+j]
	MOVQ CX, BX

gates:
	VMOVUPD (DI), Y0
	SIGMOID(Y0, Y4, Y5, Y6, Y7)
	VMOVUPD Y0, (DI)           // i
	VMOVUPD (DI)(DX*1), Y1
	SIGMOID(Y1, Y4, Y5, Y6, Y7)
	VMOVUPD Y1, (DI)(DX*1)     // f
	VMOVUPD (DI)(DX*2), Y2
	TANH(Y2, Y5, Y3, Y7)
	VMOVUPD Y3, (DI)(DX*2)     // g
	VMOVUPD (R10), Y0
	SIGMOID(Y0, Y4, Y5, Y6, Y7)
	VMOVUPD Y0, (R10)          // o
	ADDQ $32, DI
	ADDQ $32, R10
	DECQ BX
	JNZ  gates

	MOVQ z_base+0(FP), DI
	LEAQ (DI)(DX*2), R10
	ADDQ DX, R10
	MOVQ cPrev_base+24(FP), SI
	MOVQ c_base+48(FP), R8
	MOVQ tc_base+72(FP), R9
	MOVQ h_base+96(FP), R11

state:
	VMOVUPD (DI)(DX*1), Y1
	VMULPD (SI), Y1, Y1        // f*cPrev
	VMOVUPD (DI), Y0
	VMULPD (DI)(DX*2), Y0, Y0  // i*g
	VADDPD Y0, Y1, Y1
	VMOVUPD Y1, (R8)           // c
	TANH(Y1, Y5, Y2, Y7)
	VMOVUPD Y2, (R9)           // tanh(c)
	VMULPD (R10), Y2, Y3       // o*tanh(c)
	VMOVUPD Y3, (R11)
	ADDQ $32, DI
	ADDQ $32, R10
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R11
	DECQ CX
	JNZ  state
	VZEROUPPER

none:
	RET

// ACCB(dz, zrow, brow) stores the four gradients in dz at zrow and adds
// each nonzero one (NaN included) to the bias gradient at brow: where dz is
// zero, the blend keeps the old dB, so a -0 stays -0 as in the Go loop.
// Y11-Y13 are clobbered; Y14 holds +0.
#define ACCB(dz, zrow, brow) \
	VMOVUPD dz, zrow; \
	VMOVUPD brow, Y13; \
	VADDPD dz, Y13, Y12; \
	VCMPPD $4, Y14, dz, Y11; \
	VBLENDVPD Y11, Y12, Y13, Y13; \
	VMOVUPD Y13, brow

// func gateGradsAVX2(a, tc, cPrev, dh, dc, dz, dB []float64)
//
// For every unit j below H&^3 with H = len(tc), four units per step, with
// i, f, g, o = a[j], a[H+j], a[2H+j], a[3H+j] and t = tc[j]:
// dct = dc[j] + dh[j]*o*(1-t*t), dc[j] = dct*f,
// dz[j] = dct*g*i*(1-i), dz[H+j] = dct*cPrev[j]*f*(1-f),
// dz[2H+j] = dct*i*(1-g*g) and dz[3H+j] = dh[j]*t*o*(1-o), each product
// and difference one VMULPD or VSUBPD in gateGradsRows' order, so every lane
// has the same bits as the Go loop; then dB[r] += dz[r] for each of the four
// rows r where dz[r] != 0. The caller has checked len(a) == len(dz) ==
// len(dB) == 4*len(tc) and that cPrev, dh and dc have len(tc).
TEXT ·gateGradsAVX2(SB), NOSPLIT, $0-168
	MOVQ tc_len+32(FP), DX
	MOVQ DX, CX
	SHRQ $2, CX                // groups of 4 units
	JZ   nogroup
	MOVQ a_base+0(FP), DI      // a[j]
	MOVQ tc_base+24(FP), SI
	MOVQ cPrev_base+48(FP), R8
	MOVQ dh_base+72(FP), R9
	MOVQ dc_base+96(FP), R11
	MOVQ dz_base+120(FP), R12  // dz[j]
	MOVQ dB_base+144(FP), AX   // dB[j]
	SHLQ $3, DX                // gate stride in bytes, 8H
	LEAQ (DI)(DX*2), R10
	ADDQ DX, R10               // a[3H+j]
	LEAQ (R12)(DX*2), R13
	ADDQ DX, R13               // dz[3H+j]
	LEAQ (AX)(DX*2), BX
	ADDQ DX, BX                // dB[3H+j]
	VMOVUPD one<>(SB), Y15
	VXORPD Y14, Y14, Y14

group:
	VMOVUPD (SI), Y0           // t
	VMOVUPD (R9), Y1           // dh
	VMOVUPD (R10), Y2          // o
	VMULPD Y0, Y1, Y3          // do = dh*t
	VMULPD Y0, Y0, Y4
	VSUBPD Y4, Y15, Y4         // 1 - t*t
	VMULPD Y2, Y1, Y5          // dh*o
	VMULPD Y4, Y5, Y5
	VADDPD (R11), Y5, Y5       // dct
	VMOVUPD (DI), Y6           // i
	VMOVUPD (DI)(DX*1), Y7     // f
	VMOVUPD (DI)(DX*2), Y8     // g
	VMULPD Y7, Y5, Y9          // dct*f
	VMOVUPD Y9, (R11)
	VMULPD Y8, Y5, Y9          // di = dct*g
	VMULPD Y6, Y9, Y9
	VSUBPD Y6, Y15, Y10        // 1 - i
	VMULPD Y10, Y9, Y9
	ACCB(Y9, (R12), (AX))
	VMULPD (R8), Y5, Y9        // df = dct*cPrev
	VMULPD Y7, Y9, Y9
	VSUBPD Y7, Y15, Y10        // 1 - f
	VMULPD Y10, Y9, Y9
	ACCB(Y9, (R12)(DX*1), (AX)(DX*1))
	VMULPD Y6, Y5, Y9          // dg = dct*i
	VMULPD Y8, Y8, Y10
	VSUBPD Y10, Y15, Y10       // 1 - g*g
	VMULPD Y10, Y9, Y9
	ACCB(Y9, (R12)(DX*2), (AX)(DX*2))
	VMULPD Y2, Y3, Y9          // do*o
	VSUBPD Y2, Y15, Y10        // 1 - o
	VMULPD Y10, Y9, Y9
	ACCB(Y9, (R13), (BX))
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, AX
	ADDQ $32, BX
	DECQ CX
	JNZ  group
	VZEROUPPER

nogroup:
	RET

// DW16 adds g (Y0) times the block of v held in Y8-Y11 to the 16 doubles of
// one dw row at DI: VMULPD then VADDPD, never fused, with plain loads and
// stores.
#define DW16 \
	VMULPD Y8, Y0, Y1; \
	VMULPD Y9, Y0, Y2; \
	VMULPD Y10, Y0, Y3; \
	VMULPD Y11, Y0, Y4; \
	VADDPD (DI), Y1, Y1; \
	VADDPD 32(DI), Y2, Y2; \
	VADDPD 64(DI), Y3, Y3; \
	VADDPD 96(DI), Y4, Y4; \
	VMOVUPD Y1, (DI); \
	VMOVUPD Y2, 32(DI); \
	VMOVUPD Y3, 64(DI); \
	VMOVUPD Y4, 96(DI)

// DX16 adds the 16 doubles of one w row at AX times g (Y0) to the block of
// dx held in Y12-Y15.
#define DX16 \
	VMULPD (AX), Y0, Y1; \
	VMULPD 32(AX), Y0, Y2; \
	VMULPD 64(AX), Y0, Y3; \
	VMULPD 96(AX), Y0, Y4; \
	VADDPD Y1, Y12, Y12; \
	VADDPD Y2, Y13, Y13; \
	VADDPD Y3, Y14, Y14; \
	VADDPD Y4, Y15, Y15

// SKIPZERO(zero) jumps to zero if g = dz[r] (at SI) is +0 or -0, its bits
// but the sign all clear, and otherwise (NaN included) falls through with
// g broadcast in Y0. R14 is clobbered, which ABI0 code may do: the call
// from Go restores it.
#define SKIPZERO(zero) \
	MOVQ (SI), R14; \
	SHLQ $1, R14; \
	JZ   zero; \
	VBROADCASTSD (SI), Y0

// CHUNK is how many rows backRowsAVX2 walks per pass over a column block.
// Walking every row per block would read w and dw down a column, one or
// two cache lines per row; for wide rows (n = 128: a 1 KB stride) that
// outran the hardware prefetch and made the kernel slower than walking
// whole rows. Within a chunk, each row's lines are read in order across
// the blocks, and dx's block is loaded and stored once per chunk.
#define CHUNK 16

// func backRowsAVX2(dz, w, dw, v, dx []float64)
//
// For every row r with g = dz[r] != 0 (NaN included), in row order, with
// n = len(v): dw[r*n+i] += g*v[i] for every i, then, unless len(dx) is 0,
// dx[i] += w[r*n+i]*g. The rows are walked in chunks of CHUNK and, within
// a chunk, the columns in blocks of 16: each block of v and of dx is held
// in ymm registers across the chunk's rows. The up to 15 columns past the
// last whole block are walked the same way, their whole quads held in
// registers and the last n%4 columns done one at a time from memory
// (VMULSD then VADDSD). dw is read and written with plain loads and
// stores, never masked ones. Every element sees the Go loop's additions in
// the Go loop's order, so every result has the same bits; a zero g is
// skipped as in the Go loop. The caller has checked len(w) == len(dw) ==
// len(dz)*n and len(dx) is 0 or n.
TEXT ·backRowsAVX2(SB), NOSPLIT, $40-120
	MOVQ dz_len+8(FP), CX      // rows
	TESTQ CX, CX
	JZ   out
	MOVQ CX, left-40(SP)       // rows not yet walked
	MOVQ dz_base+0(FP), AX
	MOVQ AX, cdz-8(SP)         // the chunk's first row: of dz,
	MOVQ w_base+24(FP), AX
	MOVQ AX, cw-16(SP)         // of w
	MOVQ dw_base+48(FP), AX
	MOVQ AX, cdw-24(SP)        // and of dw
	MOVQ dx_len+104(FP), R12
	MOVQ v_len+80(FP), R13
	SHLQ $3, R13               // row stride in bytes

chunk:
	MOVQ left-40(SP), CX
	CMPQ CX, $CHUNK
	JBE  lastchunk
	MOVQ $CHUNK, CX

lastchunk:
	MOVQ CX, rows-32(SP)       // rows in this chunk
	MOVQ cw-16(SP), R8         // column block of w, the chunk's first row
	MOVQ cdw-24(SP), R9        // column block of dw, the chunk's first row
	MOVQ v_base+72(FP), R10    // column block of v
	MOVQ dx_base+96(FP), R11   // column block of dx
	MOVQ v_len+80(FP), BX
	SHRQ $4, BX                // whole blocks of 16 columns
	JZ   rest

block:
	VMOVUPD (R10), Y8
	VMOVUPD 32(R10), Y9
	VMOVUPD 64(R10), Y10
	VMOVUPD 96(R10), Y11
	MOVQ cdz-8(SP), SI
	MOVQ R8, AX                // row r of w in this block
	MOVQ R9, DI                // row r of dw in this block
	MOVQ rows-32(SP), DX       // rows left in the chunk
	TESTQ R12, R12
	JZ   rownodx
	VMOVUPD (R11), Y12
	VMOVUPD 32(R11), Y13
	VMOVUPD 64(R11), Y14
	VMOVUPD 96(R11), Y15

rowdx:
	SKIPZERO(nextdx)
	DW16
	DX16

nextdx:
	ADDQ $8, SI
	ADDQ R13, AX
	ADDQ R13, DI
	DECQ DX
	JNZ  rowdx
	VMOVUPD Y12, (R11)
	VMOVUPD Y13, 32(R11)
	VMOVUPD Y14, 64(R11)
	VMOVUPD Y15, 96(R11)
	ADDQ $128, R11
	JMP  nextblock

rownodx:
	SKIPZERO(nextnodx)
	DW16

nextnodx:
	ADDQ $8, SI
	ADDQ R13, DI
	DECQ DX
	JNZ  rownodx

nextblock:
	ADDQ $128, R8
	ADDQ $128, R9
	ADDQ $128, R10
	DECQ BX
	JNZ  block

rest:
	MOVQ v_len+80(FP), DX
	ANDQ $15, DX               // columns past the last whole block
	JZ   nextchunk
	MOVQ DX, BX
	ANDQ $-4, BX               // of them, those in whole quads
	MOVQ cdz-8(SP), SI
	MOVQ rows-32(SP), CX
	CMPQ BX, $4                // hold the whole quads of v in Y8-Y10
	JB   restrow
	VMOVUPD (R10), Y8
	CMPQ BX, $8
	JB   holddx
	VMOVUPD 32(R10), Y9
	CMPQ BX, $12
	JB   holddx
	VMOVUPD 64(R10), Y10

holddx:
	TESTQ R12, R12             // and those of dx in Y12-Y14
	JZ   restrow
	VMOVUPD (R11), Y12
	CMPQ BX, $8
	JB   restrow
	VMOVUPD 32(R11), Y13
	CMPQ BX, $12
	JB   restrow
	VMOVUPD 64(R11), Y14

restrow:
	SKIPZERO(restnext)
	CMPQ BX, $4
	JB   dwtail
	VMULPD Y8, Y0, Y1          // g*v
	VADDPD (R9), Y1, Y1
	VMOVUPD Y1, (R9)
	CMPQ BX, $8
	JB   dwtail
	VMULPD Y9, Y0, Y2
	VADDPD 32(R9), Y2, Y2
	VMOVUPD Y2, 32(R9)
	CMPQ BX, $12
	JB   dwtail
	VMULPD Y10, Y0, Y3
	VADDPD 64(R9), Y3, Y3
	VMOVUPD Y3, 64(R9)

dwtail:
	MOVQ BX, AX

dwscalar:
	CMPQ AX, DX
	JGE  dxquads
	VMULSD (R10)(AX*8), X0, X1
	VADDSD (R9)(AX*8), X1, X1
	VMOVSD X1, (R9)(AX*8)
	INCQ AX
	JMP  dwscalar

dxquads:
	TESTQ R12, R12
	JZ   restnext
	CMPQ BX, $4
	JB   dxtail
	VMULPD (R8), Y0, Y1        // w[r]*g
	VADDPD Y1, Y12, Y12
	CMPQ BX, $8
	JB   dxtail
	VMULPD 32(R8), Y0, Y2
	VADDPD Y2, Y13, Y13
	CMPQ BX, $12
	JB   dxtail
	VMULPD 64(R8), Y0, Y3
	VADDPD Y3, Y14, Y14

dxtail:
	MOVQ BX, AX

dxscalar:
	CMPQ AX, DX
	JGE  restnext
	VMULSD (R8)(AX*8), X0, X1
	VADDSD (R11)(AX*8), X1, X1
	VMOVSD X1, (R11)(AX*8)
	INCQ AX
	JMP  dxscalar

restnext:
	ADDQ $8, SI
	ADDQ R13, R8
	ADDQ R13, R9
	DECQ CX
	JNZ  restrow
	TESTQ R12, R12             // store the whole quads of dx
	JZ   nextchunk
	CMPQ BX, $4
	JB   nextchunk
	VMOVUPD Y12, (R11)
	CMPQ BX, $8
	JB   nextchunk
	VMOVUPD Y13, 32(R11)
	CMPQ BX, $12
	JB   nextchunk
	VMOVUPD Y14, 64(R11)

nextchunk:
	MOVQ rows-32(SP), AX
	LEAQ (AX*8), DX
	ADDQ DX, cdz-8(SP)
	IMULQ R13, AX
	ADDQ AX, cw-16(SP)
	ADDQ AX, cdw-24(SP)
	MOVQ left-40(SP), CX
	SUBQ rows-32(SP), CX
	MOVQ CX, left-40(SP)
	JNZ  chunk
	VZEROUPPER

out:
	RET
