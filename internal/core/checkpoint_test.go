package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dissent/internal/crypto"
	"dissent/internal/group"
)

// misplaceSlot rewrites a signed member checkpoint in place so the
// member's own pseudonym key lies past the end of the schedule: its
// slot keeps a junk key, and three keys are appended, the last one the
// member's. The message is re-signed with the sending server's key, so
// only the shape checks stand between it and the member's replica.
func (f *fixture) misplaceSlot(m *Message, pseu []byte) {
	f.t.Helper()
	var cp MemberCheckpoint
	if err := DecodeCheckpoint(m.Body, &cp); err != nil {
		f.t.Fatal(err)
	}
	for i, k := range cp.SlotKeys {
		if bytes.Equal(k, pseu) {
			cp.SlotKeys[i] = []byte("junk")
		}
	}
	cp.SlotKeys = append(cp.SlotKeys, []byte("junk-1"), []byte("junk-2"), pseu)
	for _, s := range f.servers {
		if s.ID() == m.From {
			re, err := s.sign(m.Type, m.Round, EncodeCheckpoint(&cp))
			if err != nil {
				f.t.Fatal(err)
			}
			*m = *re
			return
		}
	}
	f.t.Fatalf("checkpoint from non-server %s", m.From)
}

// TestMisshapenCheckpointIsViolation feeds a member a server-signed
// checkpoint whose slot keys outnumber its schedule, with the member's
// own key among the extras — once as a joiner's welcome, once as an
// established member's snapshot re-sync. Either must surface as a
// protocol violation and leave the member's replica alone, not install
// a slot past the schedule (which panicked the client).
func TestMisshapenCheckpointIsViolation(t *testing.T) {
	const epoch = 4
	t.Run("join-welcome", func(t *testing.T) {
		f := newFixture(t, 2, 3, fixtureOpts{
			mutatePolicy: func(p *group.Policy) {
				p.BeaconEpochRounds = epoch
				p.Alpha = 0.5
				p.OpenAdmission = true
			},
		})
		joinKP, _ := crypto.GenerateKeyPair(crypto.P256(), nil)
		joiner, err := NewJoinerClient(f.def, joinKP, "", Options{MessageGroup: crypto.ModP512Test()})
		if err != nil {
			t.Fatal(err)
		}
		f.h.AddNode(joiner.ID(), joiner, 0)
		mangled := 0
		f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
			if m.Type == MsgJoinWelcome {
				f.misplaceSlot(m, joiner.keyGrp.Encode(joiner.pseudonym.Public))
				mangled++
			}
			return 0, false
		}
		f.h.StartAll()
		f.stepUntilRound(3*epoch, 3_000_000)
		if mangled == 0 {
			t.Fatal("no welcome was ever sent")
		}
		if joiner.Ready() {
			t.Fatal("joiner installed a checkpoint whose slot lies past the schedule")
		}
		assertSlotViolation(t, f, joiner.ID())
	})
	t.Run("snapshot-sync", func(t *testing.T) {
		dropped := 0
		f := newFixture(t, 2, 3, fixtureOpts{
			mutatePolicy: func(p *group.Policy) {
				p.BeaconEpochRounds = epoch
				p.Alpha = 0.25
			},
			wrapClient: func(idx int, c *Client) Engine {
				if idx != 0 {
					return nil
				}
				return &dropVersionClient{Client: c, version: 1, dropped: &dropped}
			},
		})
		victim := f.clients[0]
		mangled := 0
		f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
			if m.Type == MsgSnapshotSync {
				f.misplaceSlot(m, victim.keyGrp.Encode(victim.pseudonym.Public))
				mangled++
			}
			return 0, false
		}
		// As in TestClientResyncsFromSnapshotAfterTruncation: the victim
		// misses version 1 and every server forgets it, so only a
		// snapshot re-sync could converge the victim.
		f.h.StartAll()
		f.stepUntilRound(1, 1_000_000)
		if err := f.servers[0].Expel(f.clients[2].ID()); err != nil {
			t.Fatal(err)
		}
		f.stepUntilRound(epoch+1, 2_000_000)
		for _, s := range f.servers {
			delete(s.rosterLog, 1)
		}
		f.stepUntilRound(3*epoch, 4_000_000)
		if mangled == 0 {
			t.Fatal("no snapshot re-sync was ever sent")
		}
		if f.h.FirstEvent(victim.ID(), EventReplicaResynced) != nil {
			t.Fatal("client re-synced from a checkpoint whose slot lies past the schedule")
		}
		if victim.mySlot >= victim.sched.NumSlots() {
			t.Fatalf("client slot %d past its %d-slot schedule", victim.mySlot, victim.sched.NumSlots())
		}
		assertSlotViolation(t, f, victim.ID())
	})
}

func assertSlotViolation(t *testing.T, f *fixture, id group.NodeID) {
	t.Helper()
	for _, e := range f.violations() {
		if e.Node == id && strings.Contains(e.Detail, "slot keys for") {
			return
		}
	}
	t.Fatalf("no slot-shape violation at the member; violations: %v", f.violations())
}

// FuzzCheckpointDecode hammers the checkpoint codec and validator with
// network bytes: decoding either embedding, then validating and
// installing what decoded, must never panic, and anything accepted
// must re-encode to the exact input. Seeds are a welcome body and a
// server restart record encoded by a live fixture, plus truncations.
func FuzzCheckpointDecode(f *testing.F) {
	fx := newFixture(f, 2, 3, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = 4
			p.Alpha = 0.5
		},
		mutateOpts: func(o *Options) { o.PipelineDepth = 2 },
	})
	fx.h.StartAll()
	fx.stepUntilRound(1, 1_000_000)
	if err := fx.servers[0].Expel(fx.clients[2].ID()); err != nil {
		f.Fatal(err)
	}
	fx.stepUntilRound(6, 2_000_000)
	srv, cl := fx.servers[0], fx.clients[0]
	if srv.LatestRosterUpdate() == nil {
		f.Fatal("no certified roster update to anchor a welcome")
	}
	for _, b := range [][]byte{
		srv.memberCheckpoint(srv.LatestRosterUpdate()),
		EncodeCheckpoint(srv.serverRecord()),
	} {
		f.Add(b)
		for i := 0; i < len(b); i += len(b)/8 + 1 {
			f.Add(b[:i])
		}
	}
	// Rejection is the expected outcome for most inputs; only a panic or
	// a non-canonical acceptance fails.
	f.Fuzz(func(t *testing.T, b []byte) {
		var sc ServerCheckpoint
		if DecodeCheckpoint(b, &sc) == nil {
			if !bytes.Equal(EncodeCheckpoint(&sc), b) {
				t.Fatalf("server record accepted a non-canonical encoding %x", b)
			}
			_, _ = srv.restoreSchedule(&sc.Checkpoint)
		}
		var mc MemberCheckpoint
		if DecodeCheckpoint(b, &mc) == nil {
			if !bytes.Equal(EncodeCheckpoint(&mc), b) {
				t.Fatalf("member checkpoint accepted a non-canonical encoding %x", b)
			}
			for _, welcome := range []bool{false, true} {
				_, _, _, _, _ = cl.checkCheckpoint(&mc, welcome)
			}
		}
	})
}
