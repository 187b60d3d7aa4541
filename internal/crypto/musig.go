package crypto

import (
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Collective Schnorr signing (MuSig2; Nick, Ruffing and Seurin, CRYPTO
// 2021). A fixed, ordered signer set — Dissent's servers — produces one
// ordinary Schnorr signature (c, z) under the aggregate key
// X̃ = Σ aᵢ·Xᵢ, where aᵢ = H(L, Xᵢ) and L is the ordered key list. The
// signature verifies with the unchanged Verify, yet exists only if
// every signer contributed: a verifier checks "all M signed" once
// instead of M times.
//
// One signing session runs in two steps. Before the message is known
// each signer draws a fresh secret nonce pair (k1, k2) and publishes
// (R1, R2) = (k1·G, k2·G). Once every public nonce and the message are
// fixed, each signer sends the partial signature
//
//	zᵢ = k1ᵢ + b·k2ᵢ + c·aᵢ·xᵢ,
//
// where b = H(X̃, ΣR1, ΣR2, m), R = ΣR1 + b·ΣR2 and c is the Schnorr
// challenge over (R, X̃, m). The signature is (c, Σzᵢ). A partial can be
// checked on its own, zᵢ·G = R1ᵢ + b·R2ᵢ + c·aᵢ·Xᵢ, which attributes a
// failed aggregate to the signer at fault.
//
// A secret nonce must sign exactly once: two partials under one nonce
// for different messages reveal the signer's key. SecretNonce enforces
// this by erasing itself on use; callers must never persist or derive
// nonces.

// AggKey is the aggregate public key of an ordered signer set.
type AggKey struct {
	// Key is X̃, the key the collective signature verifies under.
	Key Element

	g     Group
	keys  []Element
	coefs []*big.Int // aᵢ
}

// NewAggKey computes the aggregate key of the ordered key list.
func NewAggKey(g Group, keys []Element) *AggKey {
	encs := make([][]byte, len(keys))
	for i, k := range keys {
		encs[i] = g.Encode(k)
	}
	list := Hash("dissent/musig-keylist", encs...)
	ak := &AggKey{Key: g.Identity(), g: g, keys: keys, coefs: make([]*big.Int, len(keys))}
	for i, k := range keys {
		ak.coefs[i] = HashToScalar(g, "dissent/musig-coef", list, encs[i])
		ak.Key = g.Add(ak.Key, g.ScalarMult(k, ak.coefs[i]))
	}
	return ak
}

// SecretNonce is one signer's secret nonce pair for a single signing
// session. PartialSign consumes it; a second use is an error.
type SecretNonce struct {
	k1, k2 *big.Int
}

// PublicNonce is the nonce commitment (R1, R2) = (k1·G, k2·G) a signer
// publishes before the message is fixed.
type PublicNonce struct {
	R1, R2 Element
}

// NewNonce draws a fresh nonce pair from rand (nil = crypto/rand).
func NewNonce(g Group, rand io.Reader) (*SecretNonce, PublicNonce, error) {
	k1, err := g.RandomScalar(rand)
	if err != nil {
		return nil, PublicNonce{}, err
	}
	k2, err := g.RandomScalar(rand)
	if err != nil {
		return nil, PublicNonce{}, err
	}
	return &SecretNonce{k1: k1, k2: k2}, PublicNonce{R1: g.BaseMult(k1), R2: g.BaseMult(k2)}, nil
}

// EncodeNonce serializes a public nonce as two fixed-width elements.
func EncodeNonce(g Group, n PublicNonce) []byte {
	return append(g.Encode(n.R1), g.Encode(n.R2)...)
}

// DecodeNonce parses a public nonce serialized by EncodeNonce.
func DecodeNonce(g Group, data []byte) (PublicNonce, error) {
	el := g.ElementLen()
	if len(data) != 2*el {
		return PublicNonce{}, errors.New("crypto: bad nonce length")
	}
	r1, err := g.Decode(data[:el])
	if err != nil {
		return PublicNonce{}, err
	}
	r2, err := g.Decode(data[el:])
	if err != nil {
		return PublicNonce{}, err
	}
	return PublicNonce{R1: r1, R2: r2}, nil
}

// EncodePartial serializes a partial signature as one fixed-width
// scalar.
func EncodePartial(g Group, z *big.Int) []byte {
	return z.FillBytes(make([]byte, scalarLen(g)))
}

// DecodePartial parses a partial signature, rejecting out-of-range
// scalars.
func DecodePartial(g Group, data []byte) (*big.Int, error) {
	if len(data) != scalarLen(g) {
		return nil, errors.New("crypto: bad partial signature length")
	}
	z := new(big.Int).SetBytes(data)
	if z.Cmp(g.Order()) >= 0 {
		return nil, errors.New("crypto: partial signature out of range")
	}
	return z, nil
}

// SignSession fixes one collective signature's inputs: the aggregate
// key, every signer's public nonce in key order, the domain and the
// message.
type SignSession struct {
	ak     *AggKey
	nonces []PublicNonce
	b, c   *big.Int
}

// Session opens a signing session over msg under domain.
func (ak *AggKey) Session(domain string, msg []byte, nonces []PublicNonce) (*SignSession, error) {
	if len(nonces) != len(ak.keys) {
		return nil, fmt.Errorf("crypto: %d nonces for %d signers", len(nonces), len(ak.keys))
	}
	g := ak.g
	r1, r2 := g.Identity(), g.Identity()
	for _, n := range nonces {
		r1 = g.Add(r1, n.R1)
		r2 = g.Add(r2, n.R2)
	}
	b := HashToScalar(g, "dissent/musig-noncecoef", g.Encode(ak.Key), g.Encode(r1), g.Encode(r2), msg)
	r := g.Add(r1, g.ScalarMult(r2, b))
	return &SignSession{ak: ak, nonces: nonces, b: b, c: schnorrChallenge(g, domain, r, ak.Key, msg)}, nil
}

// ErrNonceUsed reports a second signature attempted with one nonce.
var ErrNonceUsed = errors.New("crypto: secret nonce already used")

// PartialSign returns signer i's partial signature and erases the
// secret nonce, which must be the one behind the session's i-th public
// nonce.
func (s *SignSession) PartialSign(i int, kp *KeyPair, sn *SecretNonce) (*big.Int, error) {
	if sn == nil || sn.k1 == nil {
		return nil, ErrNonceUsed
	}
	g := s.ak.g
	if i < 0 || i >= len(s.ak.keys) || kp.Private == nil || !g.Equal(kp.Public, s.ak.keys[i]) {
		return nil, fmt.Errorf("crypto: key pair is not signer %d", i)
	}
	q := g.Order()
	z := new(big.Int).Mul(s.c, s.ak.coefs[i])
	z.Mul(z, kp.Private)
	z.Add(z, sn.k1)
	z.Add(z, new(big.Int).Mul(s.b, sn.k2))
	z.Mod(z, q)
	sn.k1, sn.k2 = nil, nil
	return z, nil
}

// VerifyPartial checks signer i's partial signature:
// zᵢ·G − c·aᵢ·Xᵢ = R1ᵢ + b·R2ᵢ.
func (s *SignSession) VerifyPartial(i int, z *big.Int) error {
	g := s.ak.g
	ca := new(big.Int).Mul(s.c, s.ak.coefs[i])
	ca.Mod(ca, g.Order())
	got := baseMultSub(g, z, ca, s.ak.keys[i])
	n := s.nonces[i]
	if !g.Equal(got, g.Add(n.R1, g.ScalarMult(n.R2, s.b))) {
		return fmt.Errorf("crypto: signer %d partial signature invalid", i)
	}
	return nil
}

// Aggregate sums the partial signatures, one per signer in key order,
// into the collective signature. It verifies under the aggregate key
// only if every partial does.
func (s *SignSession) Aggregate(partials []*big.Int) (Signature, error) {
	if len(partials) != len(s.ak.keys) {
		return Signature{}, fmt.Errorf("crypto: %d partials for %d signers", len(partials), len(s.ak.keys))
	}
	z := new(big.Int)
	for i, p := range partials {
		if p == nil {
			return Signature{}, fmt.Errorf("crypto: signer %d partial missing", i)
		}
		z.Add(z, p)
	}
	z.Mod(z, s.ak.g.Order())
	return Signature{C: new(big.Int).Set(s.c), Z: z}, nil
}
