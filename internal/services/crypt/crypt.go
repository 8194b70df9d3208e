// Package crypt implements the data encryption case study (Section V-B2):
// transparent per-sector AES-256 encryption of the tenant's volume, the
// dm-crypt analogue. The same device decorator serves both deployments the
// paper compares — inside the encryption middle-box and inside the tenant
// VM — differing only in where its CPU cost is charged and whether the
// cipher work blocks the application's I/O path.
//
// On amd64 CPUs with VAES and AVX2 (chosen once from CPUID) the cipher runs
// its own AES-256-CTR kernel, 16 blocks per iteration in YMM registers, with
// the key expanded once by AES-NI and no allocation per request; elsewhere
// it runs crypto/cipher's CTR stream. Both produce the same keystream.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/bufpool"
	"repro/internal/middlebox"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// KeySize is the AES-256 key length.
const KeySize = 32

// Cipher encrypts and decrypts sector runs with AES-256 in CTR mode, the
// keystream addressed by volume offset: the counter block for sector s is
// base + s*(sectorSize/16) as a 128-bit big-endian integer, with
// base = AES_{sha256(key)}(0^128). Every 16-byte block of the volume thus
// has its own counter by construction, the keystream is a pure function of
// (key, volume offset) however a run is split into requests, and one
// request is one CTR stream. The per-sector tweak is the plain sector
// number, as in dm-crypt's aes-xts-plain64; ESSIV defends CBC's predictable
// IVs and has no role in CTR mode.
type Cipher struct {
	data           cipher.Block
	baseHi, baseLo uint64
	// enc is data's key schedule, the round keys the kernel reads; it is
	// expanded only when the kernel is selected.
	enc [roundKeysLen]byte
}

// roundKeysLen is the size of an AES-256 encryption schedule: 15 round keys.
const roundKeysLen = 15 * aes.BlockSize

// NewCipher builds a cipher from a 32-byte key.
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("crypt: key must be %d bytes, got %d", KeySize, len(key))
	}
	data, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	salt := sha256.Sum256(key)
	ivb, err := aes.NewCipher(salt[:])
	if err != nil {
		return nil, err
	}
	var base [aes.BlockSize]byte
	ivb.Encrypt(base[:], base[:])
	c := &Cipher{
		data:   data,
		baseHi: binary.BigEndian.Uint64(base[:8]),
		baseLo: binary.BigEndian.Uint64(base[8:]),
	}
	if useKernel {
		expandKey256((*[KeySize]byte)(key), &c.enc)
	}
	return c, nil
}

// Transform encrypts/decrypts in place a run of sectors starting at sector;
// CTR mode makes the two the same operation. sectorSize must be a multiple
// of aes.BlockSize.
func (c *Cipher) Transform(buf []byte, sector uint64, sectorSize int) {
	c.xor(buf, buf, sector, sectorSize)
}

// xor writes src XOR the keystream of the run starting at sector to dst,
// which must overlap src entirely or not at all.
func (c *Cipher) xor(dst, src []byte, sector uint64, sectorSize int) {
	hi, lo := c.counter(sector, sectorSize)
	if useKernel {
		c.xorKernel(dst, src, hi, lo)
	} else {
		c.xorStream(dst, src, hi, lo)
	}
}

// counter returns the 128-bit counter block of sector's first 16 bytes.
func (c *Cipher) counter(sector uint64, sectorSize int) (hi, lo uint64) {
	hi, lo = bits.Mul64(sector, uint64(sectorSize/aes.BlockSize))
	lo, carry := bits.Add64(c.baseLo, lo, 0)
	hi, _ = bits.Add64(c.baseHi, hi, carry)
	return hi, lo
}

// xorStream is xor on crypto/cipher's CTR stream from counter hi:lo.
func (c *Cipher) xorStream(dst, src []byte, hi, lo uint64) {
	iv := ivPool.Get().(*[aes.BlockSize]byte)
	binary.BigEndian.PutUint64(iv[:8], hi)
	binary.BigEndian.PutUint64(iv[8:], lo)
	cipher.NewCTR(c.data, iv[:]).XORKeyStream(dst, src)
	ivPool.Put(iv)
}

// xorKernel is xor on ctrBlocks from counter hi:lo. The kernel steps only
// the low word, so a run whose low word wraps is split there once and the
// rest carries into the high word.
func (c *Cipher) xorKernel(dst, src []byte, hi, lo uint64) {
	dst = dst[:len(src)]
	if blocks := uint64(len(src)+aes.BlockSize-1) / aes.BlockSize; lo != 0 && blocks > -lo {
		n := int(-lo) * aes.BlockSize
		c.ctrRun(dst[:n], src[:n], hi, lo)
		dst, src, hi, lo = dst[n:], src[n:], hi+1, 0
	}
	c.ctrRun(dst, src, hi, lo)
}

// ctrRun runs the kernel over a run in which the low word does not wrap. A
// final partial block is XORed with one block of keystream on the stack.
func (c *Cipher) ctrRun(dst, src []byte, hi, lo uint64) {
	full := len(src) / aes.BlockSize
	if full > 0 {
		ctrBlocks(&c.enc, &dst[0], &src[0], full, hi, lo)
	}
	if tail := src[full*aes.BlockSize:]; len(tail) > 0 {
		var ks [aes.BlockSize]byte
		ctrBlocks(&c.enc, &ks[0], &ks[0], 1, hi, lo+uint64(full))
		subtle.XORBytes(dst[full*aes.BlockSize:], tail, ks[:])
	}
}

// ivPool holds counter blocks. cipher.NewCTR takes the IV through an
// interface, so a stack array would escape on every transform; the AES
// stream copies it, so a pooled one is free again once NewCTR returns.
var ivPool = sync.Pool{New: func() any { return new([aes.BlockSize]byte) }}

// CostModel charges the cipher's CPU work. The real AES runs regardless
// (data is genuinely transformed); the model adds the scaled-down service
// time the testbed's dm-crypt would spend, so CPU accounting and latency
// behave like the paper's measurements.
type CostModel struct {
	// PerKiB is the modelled cipher cost per KiB of data.
	PerKiB time.Duration
	// CPU receives the charges (nil disables accounting).
	CPU *obs.CPUAccount
	// Component names the charged component ("cipher" by default).
	Component string
}

// DefaultCostModel mirrors the calibration in EXPERIMENTS.md.
func DefaultCostModel(cpu *obs.CPUAccount) CostModel {
	return CostModel{PerKiB: 500 * time.Nanosecond, CPU: cpu}
}

func (m CostModel) charge(n int) {
	if m.PerKiB <= 0 || n <= 0 {
		return
	}
	d := time.Duration(int64(m.PerKiB) * int64(n) / 1024)
	if d <= 0 {
		return
	}
	simtime.Sleep(d)
	if m.CPU != nil {
		comp := m.Component
		if comp == "" {
			comp = "cipher"
		}
		m.CPU.Charge(comp, d)
	}
}

// Device is the encrypting device decorator.
type Device struct {
	dev    blockdev.Device
	cipher *Cipher
	cost   CostModel
}

var _ blockdev.Device = (*Device)(nil)

// NewDevice wraps dev with transparent encryption. The block size must be a
// multiple of aes.BlockSize, or consecutive sectors would share keystream.
func NewDevice(dev blockdev.Device, key []byte, cost CostModel) (*Device, error) {
	if bs := dev.BlockSize(); bs%aes.BlockSize != 0 {
		return nil, fmt.Errorf("crypt: block size %d is not a multiple of %d", bs, aes.BlockSize)
	}
	c, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &Device{dev: dev, cipher: c, cost: cost}, nil
}

// BlockSize implements blockdev.Device.
func (d *Device) BlockSize() int { return d.dev.BlockSize() }

// Blocks implements blockdev.Device.
func (d *Device) Blocks() uint64 { return d.dev.Blocks() }

// ReadAt implements blockdev.Device, decrypting after the read.
func (d *Device) ReadAt(p []byte, lba uint64) error {
	if err := d.dev.ReadAt(p, lba); err != nil {
		return err
	}
	d.cost.charge(len(p))
	d.cipher.Transform(p, lba, d.dev.BlockSize())
	return nil
}

// WriteAt implements blockdev.Device, encrypting before the write. The
// caller's buffer is not modified: the ciphertext goes into a pooled buffer
// that is recycled once the backing device, which may not retain it,
// returns.
func (d *Device) WriteAt(p []byte, lba uint64) error {
	enc := bufpool.Get(len(p))
	defer enc.Release()
	d.cost.charge(len(p))
	d.cipher.xor(enc.B, p, lba, d.dev.BlockSize())
	return d.dev.WriteAt(enc.B, lba)
}

// Flush implements blockdev.Device.
func (d *Device) Flush() error { return d.dev.Flush() }

// Close implements blockdev.Device.
func (d *Device) Close() error { return d.dev.Close() }

// Service returns the middle-box service factory for the encryption
// middle-box.
func Service(key []byte, cost CostModel) middlebox.ServiceFactory {
	return func(backend blockdev.Device) (blockdev.Device, error) {
		return NewDevice(backend, key, cost)
	}
}
