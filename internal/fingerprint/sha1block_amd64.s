//go:build !purego

#include "textflag.h"

// SHA-1 compression on the x86 SHA extensions (SHA1RNDS4 runs four rounds,
// SHA1NEXTE folds the rotated A of four rounds ago into the next E,
// SHA1MSG1/SHA1MSG2 compute the message schedule). The sequence is the one
// in Intel's "SHA Extensions" white paper; sha1block_amd64.go says when it
// runs and when both files go away.

// Byte shuffle that turns a little-endian 16-byte load into four big-endian
// words in the lane order the SHA instructions expect (W0 in the top lane).
DATA bswap<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswap<>+8(SB)/8, $0x0001020304050607
GLOBL bswap<>(SB), RODATA|NOPTR, $16

#define ABCD X0
#define E0 X1
#define E1 X2
#define M0 X3
#define M1 X4
#define M2 X5
#define M3 X6
#define SWAP X7
#define ABCD0 X8
#define E00 X9

// Four rounds with round constant k on the schedule words in ma, while the
// three other registers take their next schedule step. ea holds E for these
// rounds, eb receives it for the next four.
#define ROUNDS4(k, ea, eb, ma, mb, mc, md) \
	SHA1NEXTE ma, ea; \
	MOVO      ABCD, eb; \
	SHA1MSG2  ma, mb; \
	SHA1RNDS4 $k, ea, ABCD; \
	SHA1MSG1  ma, md; \
	PXOR      ma, mc

// func sha1blockNI(h *[5]uint32, p []byte)
// len(p) must be a multiple of 64.
TEXT ·sha1blockNI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	SHRQ $6, DX
	JZ   done

	MOVOU  (DI), ABCD
	PSHUFD $0x1b, ABCD, ABCD // A in the top lane
	PXOR   E0, E0
	PINSRD $3, 16(DI), E0
	MOVOU  bswap<>(SB), SWAP

loop:
	MOVO ABCD, ABCD0
	MOVO E0, E00

	// Rounds 0-15 consume the block itself.
	MOVOU     0(SI), M0
	PSHUFB    SWAP, M0
	PADDD     M0, E0
	MOVO      ABCD, E1
	SHA1RNDS4 $0, E0, ABCD

	MOVOU     16(SI), M1
	PSHUFB    SWAP, M1
	SHA1NEXTE M1, E1
	MOVO      ABCD, E0
	SHA1RNDS4 $0, E1, ABCD
	SHA1MSG1  M1, M0

	MOVOU     32(SI), M2
	PSHUFB    SWAP, M2
	SHA1NEXTE M2, E0
	MOVO      ABCD, E1
	SHA1RNDS4 $0, E0, ABCD
	SHA1MSG1  M2, M1
	PXOR      M2, M0

	MOVOU     48(SI), M3
	PSHUFB    SWAP, M3
	SHA1NEXTE M3, E1
	MOVO      ABCD, E0
	SHA1MSG2  M3, M0
	SHA1RNDS4 $0, E1, ABCD
	SHA1MSG1  M3, M2
	PXOR      M3, M1

	// Rounds 16-67: the schedule registers rotate one place per group.
	ROUNDS4(0, E0, E1, M0, M1, M2, M3)
	ROUNDS4(1, E1, E0, M1, M2, M3, M0)
	ROUNDS4(1, E0, E1, M2, M3, M0, M1)
	ROUNDS4(1, E1, E0, M3, M0, M1, M2)
	ROUNDS4(1, E0, E1, M0, M1, M2, M3)
	ROUNDS4(1, E1, E0, M1, M2, M3, M0)
	ROUNDS4(2, E0, E1, M2, M3, M0, M1)
	ROUNDS4(2, E1, E0, M3, M0, M1, M2)
	ROUNDS4(2, E0, E1, M0, M1, M2, M3)
	ROUNDS4(2, E1, E0, M1, M2, M3, M0)
	ROUNDS4(2, E0, E1, M2, M3, M0, M1)
	ROUNDS4(3, E1, E0, M3, M0, M1, M2)
	ROUNDS4(3, E0, E1, M0, M1, M2, M3)

	// Rounds 68-79: the schedule runs out.
	SHA1NEXTE M1, E1
	MOVO      ABCD, E0
	SHA1MSG2  M1, M2
	SHA1RNDS4 $3, E1, ABCD
	PXOR      M1, M3

	SHA1NEXTE M2, E0
	MOVO      ABCD, E1
	SHA1MSG2  M2, M3
	SHA1RNDS4 $3, E0, ABCD

	SHA1NEXTE M3, E1
	MOVO      ABCD, E0
	SHA1RNDS4 $3, E1, ABCD

	SHA1NEXTE E00, E0
	PADDD     ABCD0, ABCD

	ADDQ $64, SI
	DECQ DX
	JNZ  loop

	PSHUFD $0x1b, ABCD, ABCD
	MOVOU  ABCD, (DI)
	PEXTRD $3, E0, 16(DI)

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET
