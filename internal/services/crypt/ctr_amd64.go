package crypt

// ctrBlocks writes blocks 16-byte blocks of src XOR the AES-256 keystream of
// the counter hi:lo, hi:lo+1, ... to dst, under the 15 round keys in rk. It
// steps the low word only, so lo+blocks-1 must not wrap. It runs 16 blocks
// per iteration in 8 YMM registers with VAESENC, then 2 and 1 at a time,
// and touches no byte past blocks*16 of dst or src.
//
//go:noescape
func ctrBlocks(rk *[roundKeysLen]byte, dst, src *byte, blocks int, hi, lo uint64)

// expandKey256 writes the AES-256 encryption schedule of key to enc with
// AESKEYGENASSIST.
//
//go:noescape
func expandKey256(key *[KeySize]byte, enc *[roundKeysLen]byte)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low word of XCR0, the register states the OS saves.
func xgetbv() (eax uint32)

// useKernel selects ctrBlocks over crypto/cipher's CTR. It is set once,
// here, from CPUID; tests flip it to run both paths on one host.
var useKernel = haveVAESAVX2()

// haveVAESAVX2 reports AES-NI, AVX2 and VAES, with the OS saving XMM and
// YMM state.
func haveVAESAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const aesni, osxsave, avx = 1 << 25, 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(aesni|osxsave|avx) != aesni|osxsave|avx {
		return false
	}
	const xmmYMM = 1<<1 | 1<<2
	if xgetbv()&xmmYMM != xmmYMM {
		return false
	}
	const avx2, vaes = 1 << 5, 1 << 9
	_, b, c, _ := cpuid(7, 0)
	return b&avx2 != 0 && c&vaes != 0
}
