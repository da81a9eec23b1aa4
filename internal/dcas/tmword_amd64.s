//go:build amd64

#include "textflag.h"

// func cas128(w *TMWord, oldVal, oldSeq, newVal, newSeq uint64) bool
//
// CMPXCHG16B compares RDX:RAX with the 16 bytes at the operand and, if
// equal, stores RCX:RBX there; the low quadword is TMWord.val, the high
// one TMWord.seq.
TEXT ·cas128(SB), NOSPLIT, $0-41
	MOVQ	w+0(FP), DI
	MOVQ	oldVal+8(FP), AX
	MOVQ	oldSeq+16(FP), DX
	MOVQ	newVal+24(FP), BX
	MOVQ	newSeq+32(FP), CX
	LOCK
	CMPXCHG16B	(DI)
	SETEQ	ret+40(FP)
	RET
