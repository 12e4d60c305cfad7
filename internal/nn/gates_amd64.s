#include "textflag.h"

// MAC loads a row's element(s) at addr, multiplies them by the vector
// element(s) in X8 and adds the products into acc.
#define MAC(load, mul, add, addr, acc, tmp) \
	load addr, tmp; \
	mul X8, tmp; \
	add tmp, acc

// ROWS8 applies MAC to the eight rows of a block: rows 0-2 sit at R8 plus 0,
// 1 and 2 row strides (DX), rows 3-5 at R9 and rows 6-7 at R10. X0-X7 are
// the rows' accumulators.
#define ROWS8(load, mul, add) \
	MAC(load, mul, add, (R8), X0, X9); \
	MAC(load, mul, add, (R8)(DX*1), X1, X10); \
	MAC(load, mul, add, (R8)(DX*2), X2, X11); \
	MAC(load, mul, add, (R9), X3, X12); \
	MAC(load, mul, add, (R9)(DX*1), X4, X13); \
	MAC(load, mul, add, (R9)(DX*2), X5, X14); \
	MAC(load, mul, add, (R10), X6, X9); \
	MAC(load, mul, add, (R10)(DX*1), X7, X10)

// FINISH(acc, off) folds lane 1 (s1) into lane 0 (s0) of acc, adds the
// result to the b element at byte offset off from SI and stores the sum at
// the same offset from DI: z[r] = b[r] + (s0 + s1).
#define FINISH(acc, off) \
	MOVAPD acc, X9; \
	UNPCKHPD X9, X9; \
	ADDSD X9, acc; \
	MOVSD off(SI), X10; \
	ADDSD acc, X10; \
	MOVSD X10, off(DI)

// func affineKernel(z, b, w, v []float64) int
//
// For every row r below len(z)&^7, sets z[r] = b[r] + dot(w[r*n:(r+1)*n], v)
// with n = len(v), and returns the number of rows done. Each row keeps one
// XMM accumulator: lane 0 sums the products at even indices and then the
// odd-length tail (added with ADDSD, so lane 1 is untouched), lane 1 the
// products at odd indices. That is dot's s0/s1 order exactly, with no fused
// multiply-add, so every z[r] has the same bits as the Go loop. The caller
// has checked len(b) == len(z) and len(w) == len(z)*len(v).
TEXT ·affineKernel(SB), NOSPLIT, $0-104
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), AX
	SHRQ $3, AX                // blocks of 8 rows
	MOVQ AX, BX
	SHLQ $3, BX
	MOVQ BX, ret+96(FP)
	TESTQ AX, AX
	JZ   done
	MOVQ b_base+24(FP), SI
	MOVQ w_base+48(FP), R12    // first row of the block
	MOVQ v_base+72(FP), R13
	MOVQ v_len+80(FP), CX
	LEAQ 0(CX*8), DX           // row stride in bytes

block:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ R12, R8
	LEAQ (R8)(DX*2), R9
	ADDQ DX, R9                // row 3
	LEAQ (R9)(DX*2), R10
	ADDQ DX, R10               // row 6
	MOVQ R13, R11
	MOVQ CX, BX
	SHRQ $1, BX                // element pairs
	JZ   tail

pairs:
	MOVUPD (R11), X8
	ROWS8(MOVUPD, MULPD, ADDPD)
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $16, R11
	DECQ BX
	JNZ  pairs

tail:
	TESTQ $1, CX
	JZ   reduce
	MOVSD (R11), X8
	ROWS8(MOVSD, MULSD, ADDSD)

reduce:
	FINISH(X0, 0)
	FINISH(X1, 8)
	FINISH(X2, 16)
	FINISH(X3, 24)
	FINISH(X4, 32)
	FINISH(X5, 40)
	FINISH(X6, 48)
	FINISH(X7, 56)
	ADDQ $64, SI
	ADDQ $64, DI
	LEAQ (R12)(DX*8), R12      // next block: 8 rows on
	DECQ AX
	JNZ  block

done:
	RET
