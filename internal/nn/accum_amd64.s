#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-20
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func accum16(orow, bd []float64, off []int, val []float64, first bool)
//
// Register use: DI the current 16-column block of orow, SI bd advanced
// to the same column, CX the blocks left, R8/R9 off and val, R10
// len(off), R11 t, Y0-Y3 the block's accumulators, Y4 val[t]
// broadcast, Y5-Y8 the products. Each product is rounded by VMULPD
// before VADDPD adds it, exactly as the scalar loop does; a fused
// multiply-add would skip that rounding.
TEXT ·accum16(SB), NOSPLIT, $0-97
	MOVQ orow_base+0(FP), DI
	MOVQ orow_len+8(FP), CX
	SHRQ $4, CX
	MOVQ bd_base+24(FP), SI
	MOVQ off_base+48(FP), R8
	MOVQ off_len+56(FP), R10
	MOVQ val_base+72(FP), R9
	MOVBLZX first+96(FP), BX

block:
	TESTQ CX, CX
	JZ    done
	TESTL BX, BX
	JZ    load
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JMP    terms

load:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3

terms:
	XORQ R11, R11

term:
	CMPQ         R11, R10
	JGE          store
	MOVQ         (R8)(R11*8), R12
	LEAQ         (SI)(R12*8), R13
	VBROADCASTSD (R9)(R11*8), Y4
	VMULPD       (R13), Y4, Y5
	VMULPD       32(R13), Y4, Y6
	VMULPD       64(R13), Y4, Y7
	VMULPD       96(R13), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	INCQ         R11
	JMP          term

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	DECQ    CX
	JMP     block

done:
	VZEROUPPER
	RET
