//go:build !amd64

package crypt

// useKernel is false off amd64: crypto/cipher's CTR is the only path.
var useKernel = false

func ctrBlocks(rk *[roundKeysLen]byte, dst, src *byte, blocks int, hi, lo uint64) {
	panic("crypt: no AES-CTR kernel on this GOARCH")
}

func expandKey256(key *[KeySize]byte, enc *[roundKeysLen]byte) {
	panic("crypt: no AES-CTR kernel on this GOARCH")
}
