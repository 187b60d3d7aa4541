package crypto

import (
	"bytes"
	"errors"
	"math/big"
	"testing"
)

// musigFixture is an ordered signer set with one fresh nonce each.
type musigFixture struct {
	g      Group
	kps    []*KeyPair
	ak     *AggKey
	secret []*SecretNonce
	public []PublicNonce
}

func newMusigFixture(t *testing.T, g Group, m int) *musigFixture {
	t.Helper()
	f := &musigFixture{g: g}
	keys := make([]Element, m)
	for i := 0; i < m; i++ {
		kp, err := GenerateKeyPair(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.kps = append(f.kps, kp)
		keys[i] = kp.Public
	}
	f.ak = NewAggKey(g, keys)
	f.freshNonces(t)
	return f
}

func (f *musigFixture) freshNonces(t *testing.T) {
	t.Helper()
	f.secret, f.public = nil, nil
	for range f.kps {
		sn, pn, err := NewNonce(f.g, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.secret = append(f.secret, sn)
		f.public = append(f.public, pn)
	}
}

// sign opens a session over msg and returns it with every partial.
func (f *musigFixture) sign(t *testing.T, msg []byte) (*SignSession, []*big.Int) {
	t.Helper()
	s, err := f.ak.Session("dissent/test", msg, f.public)
	if err != nil {
		t.Fatal(err)
	}
	partials := make([]*big.Int, len(f.kps))
	for i, kp := range f.kps {
		if partials[i], err = s.PartialSign(i, kp, f.secret[i]); err != nil {
			t.Fatal(err)
		}
	}
	return s, partials
}

func TestMuSigAggregateVerifies(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			f := newMusigFixture(t, g, 3)
			msg := []byte("round 7 cleartext digest")
			s, partials := f.sign(t, msg)
			for i, z := range partials {
				if err := s.VerifyPartial(i, z); err != nil {
					t.Fatalf("honest partial %d rejected: %v", i, err)
				}
			}
			sig, err := s.Aggregate(partials)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(g, f.ak.Key, "dissent/test", msg, sig); err != nil {
				t.Fatalf("collective signature rejected by Verify: %v", err)
			}
			back, err := DecodeSignature(g, EncodeSignature(g, sig))
			if err != nil || Verify(g, f.ak.Key, "dissent/test", msg, back) != nil {
				t.Fatal("collective signature does not survive its encoding")
			}
			for i, kp := range f.kps {
				if Verify(g, kp.Public, "dissent/test", msg, sig) == nil {
					t.Fatalf("collective signature verifies under signer %d's own key", i)
				}
			}
		})
	}
}

func TestMuSigRejectsBadPartials(t *testing.T) {
	g := P256()
	msg := []byte("the digest everyone signs")
	cases := []struct {
		name string
		// forge returns signer 1's partial for the honest session s.
		forge func(t *testing.T, f *musigFixture, s *SignSession, z *big.Int) *big.Int
	}{
		{"altered", func(t *testing.T, f *musigFixture, s *SignSession, z *big.Int) *big.Int {
			return new(big.Int).Add(z, big.NewInt(1))
		}},
		{"other digest", func(t *testing.T, f *musigFixture, s *SignSession, z *big.Int) *big.Int {
			// The same nonce over a different digest (a copy of the
			// secret nonce stands in for a signer that misuses it).
			other, err := f.ak.Session("dissent/test", []byte("another digest"), f.public)
			if err != nil {
				t.Fatal(err)
			}
			p, err := other.PartialSign(1, f.kps[1], f.secret[1])
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"other attempt", func(t *testing.T, f *musigFixture, s *SignSession, z *big.Int) *big.Int {
			// The same digest under another attempt's nonces.
			f.freshNonces(t)
			other, err := f.ak.Session("dissent/test", msg, f.public)
			if err != nil {
				t.Fatal(err)
			}
			p, err := other.PartialSign(1, f.kps[1], f.secret[1])
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newMusigFixture(t, g, 3)
			// Keep a copy of signer 1's secret nonce for the forgeries.
			spare := *f.secret[1]
			s, partials := f.sign(t, msg)
			f.secret[1] = &spare
			partials[1] = tc.forge(t, f, s, partials[1])
			sig, err := s.Aggregate(partials)
			if err != nil {
				t.Fatal(err)
			}
			if Verify(g, f.ak.Key, "dissent/test", msg, sig) == nil {
				t.Fatal("aggregate with a bad partial verified")
			}
			for i, z := range partials {
				err := s.VerifyPartial(i, z)
				if (err != nil) != (i == 1) {
					t.Fatalf("partial %d check: %v (only signer 1 is at fault)", i, err)
				}
			}
		})
	}
	t.Run("missing", func(t *testing.T) {
		f := newMusigFixture(t, g, 3)
		s, partials := f.sign(t, msg)
		partials[2] = nil
		if _, err := s.Aggregate(partials); err == nil {
			t.Fatal("aggregate with a missing partial accepted")
		}
		if _, err := s.Aggregate(partials[:2]); err == nil {
			t.Fatal("aggregate over too few partials accepted")
		}
	})
}

func TestMuSigNonceSingleUse(t *testing.T) {
	f := newMusigFixture(t, P256(), 3)
	s, _ := f.sign(t, []byte("once"))
	if _, err := s.PartialSign(0, f.kps[0], f.secret[0]); !errors.Is(err, ErrNonceUsed) {
		t.Fatalf("second sign with one nonce: err = %v, want ErrNonceUsed", err)
	}
	other, err := f.ak.Session("dissent/test", []byte("twice"), f.public)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.PartialSign(0, f.kps[0], f.secret[0]); !errors.Is(err, ErrNonceUsed) {
		t.Fatalf("used nonce signed a second message: err = %v", err)
	}
	if _, err := other.PartialSign(0, f.kps[0], nil); !errors.Is(err, ErrNonceUsed) {
		t.Fatalf("nil nonce: err = %v", err)
	}
}

func TestMuSigPartialSignChecksSigner(t *testing.T) {
	f := newMusigFixture(t, P256(), 3)
	s, err := f.ak.Session("dissent/test", []byte("m"), f.public)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PartialSign(0, f.kps[1], f.secret[0]); err == nil {
		t.Fatal("signer 1's key signed as signer 0")
	}
}

// TestNewNonceReadsRandSource: nonces are drawn from the caller's
// randomness source, never derived from the key or the message.
func TestNewNonceReadsRandSource(t *testing.T) {
	g := P256()
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(i*7 + 3)
	}
	_, a, err := NewNonce(g, bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := NewNonce(g, bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeNonce(g, a), EncodeNonce(g, b)) {
		t.Fatal("equal randomness gave different nonces")
	}
	r := bytes.NewReader(seed)
	_, c, _ := NewNonce(g, r)
	_, d, _ := NewNonce(g, r)
	if bytes.Equal(EncodeNonce(g, c), EncodeNonce(g, d)) {
		t.Fatal("two draws from one source repeated a nonce")
	}
	if _, _, err := NewNonce(g, bytes.NewReader(nil)); err == nil {
		t.Fatal("nonce drawn from an empty source")
	}
}

func TestNonceAndPartialCodec(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			_, pn, err := NewNonce(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			enc := EncodeNonce(g, pn)
			back, err := DecodeNonce(g, enc)
			if err != nil || !g.Equal(back.R1, pn.R1) || !g.Equal(back.R2, pn.R2) {
				t.Fatalf("nonce round trip: %v", err)
			}
			if _, err := DecodeNonce(g, enc[1:]); err == nil {
				t.Fatal("short nonce accepted")
			}
			z, _ := g.RandomScalar(nil)
			zb, err := DecodePartial(g, EncodePartial(g, z))
			if err != nil || zb.Cmp(z) != 0 {
				t.Fatalf("partial round trip: %v", err)
			}
			if _, err := DecodePartial(g, EncodePartial(g, g.Order())); err == nil {
				t.Fatal("out-of-range partial accepted")
			}
		})
	}
}

// TestBaseMultSubMatchesReference: the fused z·G − c·P equals the
// four-operation form on every group, edge scalars included.
func TestBaseMultSubMatchesReference(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			p, _ := g.RandomElement(nil)
			for i := 0; i < 8; i++ {
				z, _ := g.RandomScalar(nil)
				c, _ := g.RandomScalar(nil)
				switch i {
				case 0:
					z = big.NewInt(0)
				case 1:
					c = big.NewInt(0)
				}
				want := g.Add(g.BaseMult(z), g.Neg(g.ScalarMult(p, c)))
				if got := baseMultSub(g, z, c, p); !g.Equal(got, want) {
					t.Fatalf("case %d: fused result differs", i)
				}
			}
			c, _ := g.RandomScalar(nil)
			z := new(big.Int).Mul(c, big.NewInt(3))
			z.Mod(z, g.Order())
			if got := baseMultSub(g, z, c, g.BaseMult(big.NewInt(3))); !g.IsIdentity(got) {
				t.Fatal("z·G − c·P = identity not reported as identity")
			}
			if got := baseMultSub(g, z, c, g.Identity()); !g.Equal(got, g.BaseMult(z)) {
				t.Fatal("identity key mishandled")
			}
		})
	}
}

// TestConcatMatchesConcatenation: streaming pieces into the hash gives
// the digest and signatures of hashing their concatenation.
func TestConcatMatchesConcatenation(t *testing.T) {
	pieces := [][]byte{[]byte("header"), nil, bytes.Repeat([]byte{7}, 1000), []byte("tail")}
	whole := bytes.Join(pieces, nil)
	h := NewHasher("dom")
	h.Part([]byte("first"))
	h.Concat(pieces...)
	if !bytes.Equal(h.Sum(), Hash("dom", []byte("first"), whole)) {
		t.Fatal("Concat digest differs from hashing the concatenation")
	}
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			kp, _ := GenerateKeyPair(g, nil)
			sig, err := kp.SignConcat("d", nil, pieces...)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(g, kp.Public, "d", whole, sig); err != nil {
				t.Fatalf("SignConcat signature rejected over the concatenation: %v", err)
			}
			sig, _ = kp.Sign("d", whole, nil)
			if err := VerifyConcat(g, kp.Public, "d", sig, pieces...); err != nil {
				t.Fatalf("Sign signature rejected over the pieces: %v", err)
			}
			if VerifyConcat(g, kp.Public, "d", sig, pieces[0], pieces[2]) == nil {
				t.Fatal("signature verified over different pieces")
			}
		})
	}
}

func BenchmarkVerify(b *testing.B) {
	g := P256()
	kp, _ := GenerateKeyPair(g, nil)
	msg := bytes.Repeat([]byte{1}, 32)
	sig, _ := kp.Sign("bench", msg, nil)
	b.ReportAllocs()
	for b.Loop() {
		if err := Verify(g, kp.Public, "bench", msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHashToScalarExpansion pins the scalar expansion to its
// definition: the digest, then Hash("dissent/hts-expand", digest,
// counter) blocks concatenated and reduced modulo the order.
func TestHashToScalarExpansion(t *testing.T) {
	for name, g := range testGroups() {
		t.Run(name, func(t *testing.T) {
			seed := Hash("d", []byte("x"), []byte("yz"))
			need := (g.Order().BitLen() + 7) / 8
			var buf []byte
			for ctr := uint64(0); len(buf) < need+16; ctr++ {
				buf = append(buf, Hash("dissent/hts-expand", seed, HashUint64(ctr))...)
			}
			want := new(big.Int).Mod(new(big.Int).SetBytes(buf), g.Order())
			if got := HashToScalar(g, "d", []byte("x"), []byte("yz")); got.Cmp(want) != 0 {
				t.Fatal("HashToScalar differs from its reference expansion")
			}
		})
	}
}
