#include "textflag.h"

// The AES-256-CTR kernel. A counter is held byte-reversed in each 128-bit
// lane (low word in quadword 0), so VPADDQ steps its low 64 bits and VPSHUFB
// with bswap<> turns the lane back into the big-endian block AES encrypts.
// The low word never wraps inside one call: Cipher.xorKernel splits a run
// there. Only lengths branch; no key or data byte selects a branch or an
// address.

DATA bswap<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap<>+8(SB)/8, $0x0001020304050607
DATA bswap<>+16(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap<>+24(SB)/8, $0x0001020304050607
GLOBL bswap<>(SB), RODATA|NOPTR, $32

// upper1 adds 1 to the upper lane's counter: lanes (c, c) become (c, c+1).
DATA upper1<>+0(SB)/8, $0
DATA upper1<>+8(SB)/8, $0
DATA upper1<>+16(SB)/8, $1
DATA upper1<>+24(SB)/8, $0
GLOBL upper1<>(SB), RODATA|NOPTR, $32

// two steps both lanes by two blocks.
DATA two<>+0(SB)/8, $2
DATA two<>+8(SB)/8, $0
DATA two<>+16(SB)/8, $2
DATA two<>+24(SB)/8, $0
GLOBL two<>(SB), RODATA|NOPTR, $32

// NEXT loads the next two counter blocks into r and steps Y15 past them;
// NEXT8 loads 16 into Y0..Y7.
#define NEXT(r) VPSHUFB Y13, Y15, r; VPADDQ Y14, Y15, Y15
#define NEXT8 NEXT(Y0); NEXT(Y1); NEXT(Y2); NEXT(Y3); NEXT(Y4); NEXT(Y5); NEXT(Y6); NEXT(Y7)

// ROUND8 applies one AES round (op) with the round key at off(AX), broadcast
// to both lanes of Y8, to Y0..Y7.
#define ROUND8(op, off) \
	VBROADCASTI128 off(AX), Y8; \
	op Y8, Y0, Y0; op Y8, Y1, Y1; op Y8, Y2, Y2; op Y8, Y3, Y3; \
	op Y8, Y4, Y4; op Y8, Y5, Y5; op Y8, Y6, Y6; op Y8, Y7, Y7

// ROUND2 applies one AES round (op) with the round key at off(AX) to Y0.
#define ROUND2(op, off) VBROADCASTI128 off(AX), Y8; op Y8, Y0, Y0

// XOROUT writes the 32 bytes of src at off, XORed with r, to dst at off.
#define XOROUT(r, off) VPXOR off(SI), r, r; VMOVDQU r, off(DI)

// func ctrBlocks(rk *[240]byte, dst *byte, src *byte, blocks int, hi uint64, lo uint64)
TEXT ·ctrBlocks(SB), NOSPLIT, $0-48
	MOVQ rk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ blocks+24(FP), CX
	MOVQ hi+32(FP), DX
	MOVQ lo+40(FP), BX

	VMOVQ       BX, X15
	VPINSRQ     $1, DX, X15, X15
	VINSERTI128 $1, X15, Y15, Y15
	VPADDQ      upper1<>(SB), Y15, Y15
	VMOVDQU     bswap<>(SB), Y13
	VMOVDQU     two<>(SB), Y14

loop16:
	CMPQ CX, $16
	JB   loop2
	NEXT8
	ROUND8(VPXOR, 0)
	ROUND8(VAESENC, 16)
	ROUND8(VAESENC, 32)
	ROUND8(VAESENC, 48)
	ROUND8(VAESENC, 64)
	ROUND8(VAESENC, 80)
	ROUND8(VAESENC, 96)
	ROUND8(VAESENC, 112)
	ROUND8(VAESENC, 128)
	ROUND8(VAESENC, 144)
	ROUND8(VAESENC, 160)
	ROUND8(VAESENC, 176)
	ROUND8(VAESENC, 192)
	ROUND8(VAESENC, 208)
	ROUND8(VAESENCLAST, 224)
	XOROUT(Y0, 0)
	XOROUT(Y1, 32)
	XOROUT(Y2, 64)
	XOROUT(Y3, 96)
	XOROUT(Y4, 128)
	XOROUT(Y5, 160)
	XOROUT(Y6, 192)
	XOROUT(Y7, 224)
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $16, CX
	JMP  loop16

loop2:
	CMPQ CX, $2
	JB   last
	NEXT(Y0)
	ROUND2(VPXOR, 0)
	ROUND2(VAESENC, 16)
	ROUND2(VAESENC, 32)
	ROUND2(VAESENC, 48)
	ROUND2(VAESENC, 64)
	ROUND2(VAESENC, 80)
	ROUND2(VAESENC, 96)
	ROUND2(VAESENC, 112)
	ROUND2(VAESENC, 128)
	ROUND2(VAESENC, 144)
	ROUND2(VAESENC, 160)
	ROUND2(VAESENC, 176)
	ROUND2(VAESENC, 192)
	ROUND2(VAESENC, 208)
	ROUND2(VAESENCLAST, 224)
	XOROUT(Y0, 0)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $2, CX
	JMP  loop2

last:
	TESTQ CX, CX
	JZ    done
	VPSHUFB     X13, X15, X0
	VPXOR       0(AX), X0, X0
	VAESENC     16(AX), X0, X0
	VAESENC     32(AX), X0, X0
	VAESENC     48(AX), X0, X0
	VAESENC     64(AX), X0, X0
	VAESENC     80(AX), X0, X0
	VAESENC     96(AX), X0, X0
	VAESENC     112(AX), X0, X0
	VAESENC     128(AX), X0, X0
	VAESENC     144(AX), X0, X0
	VAESENC     160(AX), X0, X0
	VAESENC     176(AX), X0, X0
	VAESENC     192(AX), X0, X0
	VAESENC     208(AX), X0, X0
	VAESENCLAST 224(AX), X0, X0
	VPXOR       0(SI), X0, X0
	VMOVDQU     X0, 0(DI)

done:
	VZEROUPPER
	RET

// EXPANDA and EXPANDB derive the next even and odd AES-256 round keys from
// the AESKEYGENASSIST word in X1, the same steps as GOROOT's
// crypto/internal/fips140/aes expandKeyAsm. X4's low word stays zero.
#define EXPANDA(rcon) \
	AESKEYGENASSIST $rcon, X2, X1; \
	PSHUFD $0xff, X1, X1; \
	SHUFPS $0x10, X0, X4; \
	PXOR X4, X0; \
	SHUFPS $0x8c, X0, X4; \
	PXOR X4, X0; \
	PXOR X1, X0; \
	MOVUPS X0, (BX); \
	ADDQ $16, BX

#define EXPANDB(rcon) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD $0xaa, X1, X1; \
	SHUFPS $0x10, X2, X4; \
	PXOR X4, X2; \
	SHUFPS $0x8c, X2, X4; \
	PXOR X4, X2; \
	PXOR X1, X2; \
	MOVUPS X2, (BX); \
	ADDQ $16, BX

// func expandKey256(key *[32]byte, enc *[240]byte)
TEXT ·expandKey256(SB), NOSPLIT, $0-16
	MOVQ   key+0(FP), AX
	MOVQ   enc+8(FP), BX
	MOVUPS 0(AX), X0
	MOVUPS 16(AX), X2
	MOVUPS X0, 0(BX)
	MOVUPS X2, 16(BX)
	ADDQ   $32, BX
	PXOR   X4, X4
	EXPANDA(0x01)
	EXPANDB(0x01)
	EXPANDA(0x02)
	EXPANDB(0x02)
	EXPANDA(0x04)
	EXPANDB(0x04)
	EXPANDA(0x08)
	EXPANDB(0x08)
	EXPANDA(0x10)
	EXPANDB(0x10)
	EXPANDA(0x20)
	EXPANDB(0x20)
	EXPANDA(0x40)
	VZEROUPPER
	RET

// cpuid and xgetbv touch no vector register and run before AVX is known to
// exist, so they end without VZEROUPPER.

// func cpuid(leaf uint32, sub uint32) (a uint32, b uint32, c uint32, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
