#include "textflag.h"

// func prefetchBucket(b *bucket)
TEXT ·prefetchBucket(SB), NOSPLIT|NOFRAME, $0-8
	MOVQ b+0(FP), AX
	PREFETCHT0 (AX)
	PREFETCHT0 64(AX)
	RET
