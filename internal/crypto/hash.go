package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math/big"
)

// Hash computes a domain-separated SHA-256 over a sequence of byte
// strings. Each part is length-prefixed so the encoding is injective.
func Hash(domain string, parts ...[]byte) []byte {
	// Written out rather than built on Hasher: a local sha256 state
	// stays off the heap, which the per-seed pad setup relies on.
	h := sha256.New()
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(domain)))
	h.Write(lenBuf[:])
	h.Write([]byte(domain))
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	return h.Sum(nil)
}

// Hasher computes a Hash digest one part at a time. Concat streams a
// part held in several buffers straight into the hash, so large signed
// payloads need not be copied into one buffer first.
type Hasher struct {
	h      hash.Hash
	lenBuf [8]byte
}

// NewHasher starts a Hash computation under domain.
func NewHasher(domain string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.writeLen(len(domain))
	h.h.Write([]byte(domain))
	return h
}

func (h *Hasher) writeLen(n int) {
	binary.BigEndian.PutUint64(h.lenBuf[:], uint64(n))
	h.h.Write(h.lenBuf[:])
}

// Part appends one part.
func (h *Hasher) Part(p []byte) { h.Concat(p) }

// Concat appends one part whose bytes are the concatenation of pieces;
// the digest equals Part over the concatenated bytes.
func (h *Hasher) Concat(pieces ...[]byte) {
	n := 0
	for _, p := range pieces {
		n += len(p)
	}
	h.writeLen(n)
	for _, p := range pieces {
		h.h.Write(p)
	}
}

// Sum returns the digest.
func (h *Hasher) Sum() []byte { return h.h.Sum(nil) }

// HashToScalar hashes the given parts into a scalar modulo the group
// order, used for Fiat–Shamir challenges.
func HashToScalar(g Group, domain string, parts ...[]byte) *big.Int {
	return seedToScalar(g, Hash(domain, parts...))
}

// seedToScalar expands a digest into a scalar modulo the group order.
// A counter extends the digest so the result is statistically close to
// uniform even when the order is slightly below a power of two.
func seedToScalar(g Group, seed []byte) *big.Int {
	q := g.Order()
	// Two SHA-256 blocks give 512 bits, far above any supported order's
	// bit length for P-256; for modp-2048 the 256-bit statistical bias
	// from a single block is irrelevant to soundness, but we extend to
	// cover the order's width anyway.
	need := (q.BitLen() + 7) / 8
	buf := make([]byte, 0, need+32)
	var ctr uint64
	for len(buf) < need+16 {
		var ctrBuf [8]byte
		binary.BigEndian.PutUint64(ctrBuf[:], ctr)
		buf = append(buf, Hash("dissent/hts-expand", seed, ctrBuf[:])...)
		ctr++
	}
	v := new(big.Int).SetBytes(buf)
	return v.Mod(v, q)
}

// HashUint64 renders n big-endian for inclusion in a Hash call.
func HashUint64(n uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], n)
	return b[:]
}
