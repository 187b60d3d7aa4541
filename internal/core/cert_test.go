package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"dissent/internal/crypto"
)

// outboundLog is an Interdict that passes every envelope through and
// records the body of each outbound message of one type, per round.
type outboundLog struct {
	t      MsgType
	bodies map[uint64][][]byte
}

func newOutboundLog(t MsgType) *outboundLog {
	return &outboundLog{t: t, bodies: make(map[uint64][][]byte)}
}

func (l *outboundLog) interdict() *Interdict {
	return &Interdict{Outbound: func(env Envelope, _ func(*Message) *Message) []Envelope {
		if env.Msg.Type == l.t {
			l.bodies[env.Msg.Round] = append(l.bodies[env.Msg.Round], env.Msg.Body)
		}
		return []Envelope{env}
	}}
}

// TestCertifyRetransmitResendsStoredPartial: a server waiting on a
// peer's partial signature retransmits its own MsgCertify, and every
// copy carries the partial it signed the first time, byte for byte —
// its secret nonce signs once and is gone.
func TestCertifyRetransmitResendsStoredPartial(t *testing.T) {
	sent := newOutboundLog(MsgCertify)
	withhold := &Interdict{Outbound: func(env Envelope, _ func(*Message) *Message) []Envelope {
		if env.Msg.Type == MsgCertify && env.Msg.Round == 1 {
			return nil
		}
		return []Envelope{env}
	}}
	f := newFixture(t, 3, 3, fixtureOpts{
		serverOpts: func(idx int, o *Options) {
			switch idx {
			case 0:
				o.Interdict = sent.interdict()
			case 2:
				o.Interdict = withhold
			}
		},
	})
	f.runUntilRound(4, 3_000_000)
	if got := f.servers[0].Round(); got <= 4 {
		t.Fatalf("rounds did not resume after the withheld partial: at %d", got)
	}
	copies := sent.bodies[1]
	if len(copies) < 4 { // two peers, at least one retransmission each
		t.Fatalf("server 0 sent round 1's certify %d times, want a retransmission", len(copies))
	}
	for i, b := range copies {
		if !bytes.Equal(b, copies[0]) {
			t.Fatalf("certify copy %d differs from the first: the partial was re-signed", i)
		}
	}
}

// memStore is an in-memory StateStore that keeps every value ever
// written.
type memStore struct {
	m       map[string][]byte
	written [][]byte
}

func (s *memStore) Put(bucket, key string, v []byte) error {
	v = append([]byte(nil), v...)
	s.m[bucket+"/"+key] = v
	s.written = append(s.written, v)
	return nil
}

func (s *memStore) Get(bucket, key string) ([]byte, bool) {
	v, ok := s.m[bucket+"/"+key]
	return v, ok
}

func (s *memStore) List(bucket string) []string {
	var keys []string
	for k := range s.m {
		if len(k) > len(bucket) && k[:len(bucket)+1] == bucket+"/" {
			keys = append(keys, k[len(bucket)+1:])
		}
	}
	sort.Strings(keys)
	return keys
}

func (s *memStore) Delete(bucket, key string) error {
	delete(s.m, bucket+"/"+key)
	return nil
}

// TestInventoryNoncesFreshAndUnpersisted: every (server, round,
// attempt) carries its own nonce — retransmissions repeat it, nothing
// else does — and no nonce ever reaches the durable store.
func TestInventoryNoncesFreshAndUnpersisted(t *testing.T) {
	logs := make([]*outboundLog, 3)
	stores := make([]*memStore, 3)
	f := newFixture(t, 3, 4, fixtureOpts{
		serverOpts: func(idx int, o *Options) {
			logs[idx] = newOutboundLog(MsgInventory)
			stores[idx] = &memStore{m: make(map[string][]byte)}
			o.Interdict = logs[idx].interdict()
			o.StateStore = stores[idx]
		},
	})
	f.runUntilRound(8, 3_000_000)
	if got := f.servers[0].Round(); got <= 8 {
		t.Fatalf("group stalled at round %d", got)
	}
	owner := make(map[string]string) // nonce -> server/round/attempt
	nonceOf := make(map[string]string)
	for si, l := range logs {
		for r, bodies := range l.bodies {
			for _, b := range bodies {
				inv, err := DecodeInventory(b)
				if err != nil {
					t.Fatal(err)
				}
				if len(inv.Nonce) == 0 {
					continue
				}
				key := fmt.Sprintf("server %d round %d attempt %d", si, r, inv.Attempt)
				if prev, ok := owner[string(inv.Nonce)]; ok && prev != key {
					t.Fatalf("%s reuses the nonce of %s", key, prev)
				}
				if prev, ok := nonceOf[key]; ok && prev != string(inv.Nonce) {
					t.Fatalf("%s retransmitted a different nonce", key)
				}
				owner[string(inv.Nonce)] = key
				nonceOf[key] = string(inv.Nonce)
			}
		}
	}
	if len(owner) < 3*8 {
		t.Fatalf("saw %d nonces, want one per server and round", len(owner))
	}
	g := f.def.Group()
	for nonce := range owner {
		pn, err := crypto.DecodeNonce(g, []byte(nonce))
		if err != nil {
			t.Fatal(err)
		}
		for si, st := range stores {
			for _, v := range st.written {
				if bytes.Contains(v, g.Encode(pn.R1)) || bytes.Contains(v, g.Encode(pn.R2)) {
					t.Fatalf("server %d persisted %s's nonce", si, owner[nonce])
				}
			}
		}
	}
}
