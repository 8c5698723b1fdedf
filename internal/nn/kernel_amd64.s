#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpy4(y, x []float64, a float64)
//
// y[j] = y[j] + a*x[j], four lanes at a time: one VMULPD rounding, then one
// VADDPD rounding, as the scalar loop does.
TEXT ·axpy4(SB), NOSPLIT, $0-56
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	SHRQ $2, CX
	JZ   axpydone

axpyloop:
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axpyloop

axpydone:
	VZEROUPPER
	RET

// func adam4(w, g, m, v []float64, c *adamConsts)
//
// adamGo's loop body, four parameters at a time, each operation in adamGo's
// order and rounded once: no FMA, and every divisor stays a divisor.
TEXT ·adam4(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ c+96(FP), AX

	// adamConsts, in field order.
	VBROADCASTSD 0(AX), Y0   // inv
	VBROADCASTSD 8(AX), Y1   // l2
	VBROADCASTSD 16(AX), Y2  // beta1
	VBROADCASTSD 24(AX), Y3  // 1-beta1
	VBROADCASTSD 32(AX), Y4  // beta2
	VBROADCASTSD 40(AX), Y5  // 1-beta2
	VBROADCASTSD 48(AX), Y6  // c1
	VBROADCASTSD 56(AX), Y7  // c2
	VBROADCASTSD 64(AX), Y8  // lr
	VBROADCASTSD 72(AX), Y9  // eps
	VXORPD       Y10, Y10, Y10

	SHRQ $2, CX
	JZ   adamdone

adamloop:
	// gi = g*inv + l2*w; g = 0
	VMOVUPD (SI), Y11
	VMULPD  Y0, Y11, Y11
	VMOVUPD (DI), Y12
	VMULPD  Y1, Y12, Y13
	VADDPD  Y13, Y11, Y11
	VMOVUPD Y10, (SI)

	// m = beta1*m + (1-beta1)*gi
	VMOVUPD (R8), Y14
	VMULPD  Y2, Y14, Y14
	VMULPD  Y3, Y11, Y13
	VADDPD  Y13, Y14, Y14
	VMOVUPD Y14, (R8)

	// v = beta2*v + ((1-beta2)*gi)*gi
	VMOVUPD (R9), Y15
	VMULPD  Y4, Y15, Y15
	VMULPD  Y5, Y11, Y13
	VMULPD  Y11, Y13, Y13
	VADDPD  Y13, Y15, Y15
	VMOVUPD Y15, (R9)

	// w = w - (lr*(m/c1)) / (sqrt(v/c2)+eps)
	VDIVPD  Y6, Y14, Y14
	VDIVPD  Y7, Y15, Y15
	VSQRTPD Y15, Y15
	VADDPD  Y9, Y15, Y15
	VMULPD  Y14, Y8, Y14
	VDIVPD  Y15, Y14, Y14
	VSUBPD  Y14, Y12, Y12
	VMOVUPD Y12, (DI)

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ CX
	JNZ  adamloop

adamdone:
	VZEROUPPER
	RET
