package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/crypto"
	"dissent/internal/group"
	"dissent/internal/store"
)

// blackholeEngine swallows everything addressed to a killed node.
type blackholeEngine struct{}

func (blackholeEngine) Start(time.Time) (*Output, error)            { return &Output{}, nil }
func (blackholeEngine) Handle(time.Time, *Message) (*Output, error) { return &Output{}, nil }
func (blackholeEngine) Tick(time.Time) (*Output, error)             { return &Output{}, nil }

// step drives the harness a bounded number of events regardless of
// round progress (used while the session is intentionally wedged).
func (f *fixture) step(n int64) {
	f.t.Helper()
	for i := int64(0); i < n; i++ {
		if !f.h.Net.Step() {
			break
		}
	}
	for _, err := range f.h.Errors {
		f.t.Errorf("harness error: %v", err)
	}
	f.h.Errors = nil
}

// checkpointFixture is the common state both checkpoint embeddings
// carry in the codec tests.
func checkpointFixture() Checkpoint {
	return Checkpoint{
		Version:    7,
		Round:      123,
		SlotKeys:   [][]byte{{7}, {8}, {9}},
		SchedRound: 122,
		Lens:       []int32{64, 0, 64},
		Idle:       []int32{0, 3, 1},
		Perm:       []int32{2, 0, 1},
		DrainRound: 120,
		PendingOps: []int32{1, 0, 0},
		PendingNs:  []int32{64, 0, 0},
	}
}

// TestServerSnapshotRoundTrip pins the checkpoint codec through both of
// its embeddings: the server's durable restart record and the member
// body of MsgJoinWelcome/MsgSnapshotSync. It also pins the server
// record's size — exactly the fields (and bytes) of the record it
// replaced, so the per-round persist costs no more.
func TestServerSnapshotRoundTrip(t *testing.T) {
	sn := &ServerCheckpoint{
		Checkpoint: checkpointFixture(),
		PrevCount:  9,
		RosterDue:  1,
		CertKeys:   [][]byte{{1, 2}, {3}},
		CertSigs:   [][]byte{{4}, {5, 6}},
		ExpelIdx:   []int32{4},
		ExpelAt:    []uint64{100},
	}
	sn.PendingOps, sn.PendingNs = []int32{1}, []int32{64}
	enc := EncodeCheckpoint(sn)
	if len(enc) != 170 {
		t.Fatalf("server record is %d bytes, want 170", len(enc))
	}
	var gotSn ServerCheckpoint
	if err := DecodeCheckpoint(enc, &gotSn); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", &gotSn) != fmt.Sprintf("%+v", sn) {
		t.Fatalf("server record round trip mismatch:\n got %+v\nwant %+v", &gotSn, sn)
	}

	mc := &MemberCheckpoint{
		Checkpoint: checkpointFixture(),
		Digest:     [32]byte{1, 2, 3},
		Update:     []byte("certified update"),
		RosterKeys: [][]byte{{10}, {11}},
		Expelled:   []byte{0, 1},
		BeaconHead: make([]byte, 32),
	}
	var gotMc MemberCheckpoint
	if err := DecodeCheckpoint(EncodeCheckpoint(mc), &gotMc); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", &gotMc) != fmt.Sprintf("%+v", mc) {
		t.Fatalf("member checkpoint round trip mismatch:\n got %+v\nwant %+v", &gotMc, mc)
	}

	// Either shape rejects trailing bytes and every truncation.
	for _, p := range []checkpointShape{sn, mc} {
		b := EncodeCheckpoint(p)
		if DecodeCheckpoint(append(b, 0), p) == nil {
			t.Fatalf("%T: accepted a trailing byte", p)
		}
		for i := 0; i < len(b); i++ {
			if DecodeCheckpoint(b[:i], p) == nil {
				t.Fatalf("%T: accepted a truncation to %d of %d bytes", p, i, len(b))
			}
		}
	}
}

// TestServerRestartMidEpochResumes kills one of three servers at
// several points of an epoch (at its boundary, with the roster phase
// due or running, and mid-epoch with rounds in flight), at pipeline
// depths 1 and 2, restarts it from its durable store, and asserts the
// session resumes certifying rounds without any manual rejoin: the
// restored server replays its roster chain, reopens the wedged rounds
// at a recovery attempt, adopts any round its peers certified without
// it, and the whole group reaches round and roster convergence again —
// through a non-empty roster update (an expulsion) at the first
// boundary after the kill, with every server's post-apply schedule
// digest agreeing, no client falling back to a snapshot re-sync, and
// payloads sent after the restart delivered.
func TestServerRestartMidEpochResumes(t *testing.T) {
	const epoch = 6
	for _, depth := range []int{1, 2} {
		for _, off := range []uint64{0, 1, 3, 5} {
			t.Run(fmt.Sprintf("depth%d/offset%d", depth, off), func(t *testing.T) {
				testServerRestartAt(t, epoch, 2*epoch+off, depth)
			})
		}
	}
}

func testServerRestartAt(t *testing.T, epoch, killAt uint64, depth int) {
	dir := t.TempDir()
	openKV := func(i int) *store.KV {
		kv, err := store.Open(filepath.Join(dir, fmt.Sprintf("srv%d.kv", i)))
		if err != nil {
			t.Fatal(err)
		}
		return kv
	}
	kvs := make([]*store.KV, 3)
	for i := range kvs {
		kvs[i] = openKV(i)
	}
	f := newFixture(t, 3, 4, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = int(epoch)
			p.Alpha = 0.25 // the victim's direct clients' submissions die with it
		},
		mutateOpts: func(o *Options) { o.PipelineDepth = depth },
		serverOpts: func(idx int, o *Options) {
			o.StateStore = kvs[idx]
			bs, err := beacon.NewKVStore(kvs[idx], "beacon")
			if err != nil {
				t.Fatal(err)
			}
			o.BeaconStore = bs
		},
	})

	// Queue an expulsion on a surviving server one epoch before the
	// first boundary at or after the kill, so that boundary's update is
	// non-empty. Then run to the kill point and kill server 0 with
	// rounds in flight.
	boundary := (killAt + epoch - 1) / epoch * epoch
	f.h.StartAll()
	f.stepUntilRound(boundary-epoch, 2_000_000)
	expelled := f.clients[2].ID()
	if err := f.servers[1].Expel(expelled); err != nil {
		t.Fatal(err)
	}
	f.stepUntilRound(killAt-1, 2_000_000)
	vid := f.def.Servers[0].ID
	killRound := f.servers[0].Round()
	f.h.SwapEngine(vid, blackholeEngine{})
	if err := kvs[0].Close(); err != nil {
		t.Fatal(err)
	}
	// Let the survivors run into the wedge: no round can certify while
	// one server is down, so they re-broadcast and wait.
	f.step(3000)
	for _, s := range f.servers[1:] {
		if s.Round() > killRound+1 {
			t.Fatalf("server %d certified round %d with a peer down (killed at %d)",
				s.Index(), s.Round(), killRound)
		}
	}

	// Restart: a fresh engine over the genesis definition and the same
	// keys, restored from the reopened store.
	kv0 := openKV(0)
	bs0, err := beacon.NewKVStore(kv0, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewServer(f.def, f.kpByID[vid], f.msgKPByIdx[0], Options{MessageGroup: crypto.ModP512Test(),
		StateStore: kv0, BeaconStore: bs0, PipelineDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	now := f.h.Net.Now()
	out, ok, err := restored.RestoreFromStore(now)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no snapshot found in the victim's store")
	}
	if restored.Round() > killRound || restored.Round()+2 < killRound {
		t.Fatalf("restored at round %d, killed at %d", restored.Round(), killRound)
	}
	f.servers[0] = restored
	f.h.SwapEngine(vid, restored)
	f.h.ProcessExternal(vid, now, out, nil)
	if f.h.FirstEvent(vid, EventStateRestored) == nil {
		t.Fatal("restore emitted no EventStateRestored")
	}

	// The session must resume certifying rounds, through the next epoch
	// boundary and beyond, with every replica converged.
	f.stepUntilRound(killRound+2*epoch, 4_000_000)
	for _, s := range f.servers {
		if s.Round() <= killRound+2*epoch {
			t.Fatalf("server %d stuck at round %d after restart (killed at %d); violations: %v",
				s.Index(), s.Round(), killRound, f.violations())
		}
	}
	v := f.servers[0].RosterVersion()
	if v == 0 {
		t.Fatal("roster version never advanced")
	}
	dig := f.servers[0].rosterDigests[v]
	for _, s := range f.servers {
		if s.RosterVersion() != v {
			t.Fatalf("roster versions diverged after restart: %d vs %d", v, s.RosterVersion())
		}
		if s.rosterDigests[v] != dig {
			t.Fatalf("server %d post-apply schedule digest at version %d disagrees", s.Index(), v)
		}
		if ci := s.Definition().ClientIndex(expelled); !s.Definition().Clients[ci].Expelled {
			t.Fatalf("server %d never applied the expulsion", s.Index())
		}
	}
	for _, c := range f.clients {
		if e := f.h.FirstEvent(c.ID(), EventReplicaResynced); e != nil {
			t.Fatalf("client %d fell back to a snapshot re-sync at round %d", c.Index(), e.Round)
		}
	}

	// Anonymous traffic still flows end to end after the restart.
	f.clients[0].Send([]byte("after the restart"))
	f.stepUntilRound(f.servers[0].Round()+2*uint64(depth), 1_000_000)
	found := false
	for _, d := range f.h.Deliveries {
		if string(d.Data) == "after the restart" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("post-restart payload never delivered; violations: %v", f.violations())
	}
}

// TestVictimClientsResumeAfterAdoption kills the victim server inside
// the certify window: its certification signature has reached the
// peers (they retire the round) but it dies before retiring the round
// itself. On restart the victim must adopt the peer-certified output —
// and, critically, forward it to its own attached clients and answer
// their stale resubmissions with retained outputs so they ladder back
// to the live round within a few rounds of the restart. Those clients
// consume outputs strictly in round order; before these paths existed
// they wedged at the adopted round until the next epoch boundary's
// roster re-sync — a full epoch of hard-timeout rounds with the group
// limping at reduced participation. The assertions below therefore
// bound recovery to well inside the epoch.
func TestVictimClientsResumeAfterAdoption(t *testing.T) {
	const epoch = 12
	dir := t.TempDir()
	openKV := func(i int) *store.KV {
		kv, err := store.Open(filepath.Join(dir, fmt.Sprintf("srv%d.kv", i)))
		if err != nil {
			t.Fatal(err)
		}
		return kv
	}
	kvs := make([]*store.KV, 3)
	for i := range kvs {
		kvs[i] = openKV(i)
	}
	f := newFixture(t, 3, 4, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = epoch
			p.Alpha = 0.25
		},
		serverOpts: func(idx int, o *Options) {
			o.StateStore = kvs[idx]
			bs, err := beacon.NewKVStore(kvs[idx], "beacon")
			if err != nil {
				t.Fatal(err)
			}
			o.BeaconStore = bs
		},
	})

	f.h.StartAll()
	f.stepUntilRound(epoch+2, 2_000_000)
	vid := f.def.Servers[0].ID

	// Single-step into the certify window: stop the moment a peer has
	// retired a round the victim has not — the victim's cert signature
	// is out, so killing it now leaves a round only the peers completed.
	caught := false
	for i := 0; i < 2_000_000; i++ {
		if f.servers[1].Round() > f.servers[0].Round() ||
			f.servers[2].Round() > f.servers[0].Round() {
			caught = true
			break
		}
		if !f.h.Net.Step() {
			break
		}
	}
	if !caught {
		t.Fatal("never caught a peer ahead of the victim (certify window)")
	}
	killRound := f.servers[0].Round()
	f.h.SwapEngine(vid, blackholeEngine{})
	if err := kvs[0].Close(); err != nil {
		t.Fatal(err)
	}
	f.step(3000)

	// Restart from the reopened store.
	kv0 := openKV(0)
	bs0, err := beacon.NewKVStore(kv0, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewServer(f.def, f.kpByID[vid], f.msgKPByIdx[0],
		Options{MessageGroup: crypto.ModP512Test(), StateStore: kv0, BeaconStore: bs0})
	if err != nil {
		t.Fatal(err)
	}
	now := f.h.Net.Now()
	out, ok, err := restored.RestoreFromStore(now)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no snapshot found in the victim's store")
	}
	f.servers[0] = restored
	f.h.SwapEngine(vid, restored)
	f.h.ProcessExternal(vid, now, out, nil)

	// The regression: clients homed on the victim must ladder back to
	// the live round and carry traffic again within a few rounds — NOT
	// only after the next epoch boundary's roster re-sync.
	f.clients[0].Send([]byte("from the victim's first client"))
	f.clients[3].Send([]byte("from the victim's second client"))
	f.stepUntilRound(killRound+5, 4_000_000)
	if r := f.servers[0].Round(); r >= killRound+epoch {
		t.Fatalf("rounds ran to %d (killed at %d): past the epoch boundary, the re-sync would mask the wedge", r, killRound)
	}

	// The kill point guarantees the adoption path ran (the peers retired
	// killRound without the victim); make sure the test keeps pinning it.
	adopted := false
	for _, e := range f.h.Events {
		if e.Node == vid && strings.Contains(e.Detail, "adopted") {
			adopted = true
			break
		}
	}
	if !adopted {
		t.Fatal("victim never adopted a peer-certified output")
	}

	for _, ci := range []int{0, 3} {
		if cr, sr := f.clients[ci].Round(), f.servers[0].Round(); cr < sr {
			t.Errorf("client %d still behind after restart: client round %d, server round %d", ci, cr, sr)
		}
	}
	want := map[string]bool{
		"from the victim's first client":  false,
		"from the victim's second client": false,
	}
	for _, d := range f.h.Deliveries {
		if _, ok := want[string(d.Data)]; ok {
			want[string(d.Data)] = true
		}
	}
	for msg, seen := range want {
		if !seen {
			t.Errorf("payload %q never delivered within %d rounds of the restart; violations: %v",
				msg, 5, f.violations())
		}
	}
}

// TestRestartRefillsVictimClientsLadder kills the victim server right
// after it retires a round whose output never reached its clients —
// the crash swallowed the broadcast, and the victim's retained copy
// died with it. Those clients consume outputs strictly in round order,
// so they sit at that round; the restored server must fetch the output
// back from its peers and forward it, so they climb back to the live
// round. Before it did, they waited for the next boundary's roster
// update and re-synced from a checkpoint, skipping every round between.
func TestRestartRefillsVictimClientsLadder(t *testing.T) {
	const epoch, lost = 12, 15
	dir := t.TempDir()
	openKV := func(i int) *store.KV {
		kv, err := store.Open(filepath.Join(dir, fmt.Sprintf("srv%d.kv", i)))
		if err != nil {
			t.Fatal(err)
		}
		return kv
	}
	kvs := make([]*store.KV, 3)
	for i := range kvs {
		kvs[i] = openKV(i)
	}
	f := newFixture(t, 3, 4, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = epoch
			p.Alpha = 0.25
		},
		serverOpts: func(idx int, o *Options) {
			o.StateStore = kvs[idx]
			bs, err := beacon.NewKVStore(kvs[idx], "beacon")
			if err != nil {
				t.Fatal(err)
			}
			o.BeaconStore = bs
		},
	})
	vid := f.def.Servers[0].ID
	crashed := false
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		return 0, from == vid && m.Type == MsgOutput && m.Round == lost && !crashed
	}

	f.h.StartAll()
	f.stepUntilRound(lost, 2_000_000)
	f.h.SwapEngine(vid, blackholeEngine{})
	crashed = true
	if err := kvs[0].Close(); err != nil {
		t.Fatal(err)
	}
	f.step(3000)

	kv0 := openKV(0)
	bs0, err := beacon.NewKVStore(kv0, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewServer(f.def, f.kpByID[vid], f.msgKPByIdx[0],
		Options{MessageGroup: crypto.ModP512Test(), StateStore: kv0, BeaconStore: bs0})
	if err != nil {
		t.Fatal(err)
	}
	now := f.h.Net.Now()
	out, ok, err := restored.RestoreFromStore(now)
	if err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	if restored.Round() <= lost {
		t.Fatalf("restored at round %d, want past the lost output's round %d", restored.Round(), lost)
	}
	f.servers[0] = restored
	f.h.SwapEngine(vid, restored)
	f.h.ProcessExternal(vid, now, out, nil)

	// Run through the next boundary: a client still stuck at the lost
	// round would be re-synced there.
	var victims []*Client
	for i, c := range f.clients {
		if f.def.UpstreamServer(i) == 0 {
			victims = append(victims, c)
			c.Send([]byte(fmt.Sprintf("from victim client %d", i)))
		}
	}
	f.stepUntilRound(2*epoch+2, 4_000_000)
	for _, c := range victims {
		if e := f.h.FirstEvent(c.ID(), EventReplicaResynced); e != nil {
			t.Fatalf("client %d re-synced at round %d instead of recovering the lost output; violations: %v",
				c.Index(), e.Round, f.violations())
		}
		if cr, sr := c.Round(), f.servers[0].Round(); cr < sr {
			t.Errorf("client %d still behind: client round %d, server round %d", c.Index(), cr, sr)
		}
	}
	for _, c := range victims {
		want := fmt.Sprintf("from victim client %d", c.Index())
		found := false
		for _, d := range f.h.Deliveries {
			found = found || string(d.Data) == want
		}
		if !found {
			t.Errorf("payload %q never delivered; violations: %v", want, f.violations())
		}
	}
}

// TestRestartMidRosterPhaseKeepsProposal kills a server inside the
// roster phase: its proposal — an operator expulsion only it knew of —
// reached the peers, its certificate did not. Its pending churn lived
// in memory, so the restarted server must re-propose exactly what the
// peers already hold; a fresh proposal would make it certify a
// different update than they do, and the group could never apply the
// version.
func TestRestartMidRosterPhaseKeepsProposal(t *testing.T) {
	const epoch = 6
	dir := t.TempDir()
	openKV := func(i int) *store.KV {
		kv, err := store.Open(filepath.Join(dir, fmt.Sprintf("srv%d.kv", i)))
		if err != nil {
			t.Fatal(err)
		}
		return kv
	}
	kvs := make([]*store.KV, 3)
	for i := range kvs {
		kvs[i] = openKV(i)
	}
	f := newFixture(t, 3, 4, fixtureOpts{
		mutatePolicy: func(p *group.Policy) {
			p.BeaconEpochRounds = epoch
			p.Alpha = 0.25
		},
		serverOpts: func(idx int, o *Options) {
			o.StateStore = kvs[idx]
			bs, err := beacon.NewKVStore(kvs[idx], "beacon")
			if err != nil {
				t.Fatal(err)
			}
			o.BeaconStore = bs
		},
	})
	vid := f.def.Servers[0].ID
	crashed := false
	f.h.Outbound = func(from group.NodeID, m *Message) (time.Duration, bool) {
		return 0, from == vid && m.Type == MsgRosterCert && !crashed
	}

	f.h.StartAll()
	f.stepUntilRound(1, 1_000_000)
	expelled := f.clients[2].ID()
	if err := f.servers[0].Expel(expelled); err != nil {
		t.Fatal(err)
	}
	// Step until the victim has signed the boundary's update (its
	// certificate is swallowed), then kill it.
	for i := 0; i < 2_000_000; i++ {
		if r := f.servers[0].roster; r != nil && r.update != nil {
			break
		}
		if !f.h.Net.Step() {
			t.Fatal("network idle before the roster phase")
		}
	}
	f.h.SwapEngine(vid, blackholeEngine{})
	crashed = true
	if err := kvs[0].Close(); err != nil {
		t.Fatal(err)
	}
	f.step(3000)

	kv0 := openKV(0)
	bs0, err := beacon.NewKVStore(kv0, "beacon")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewServer(f.def, f.kpByID[vid], f.msgKPByIdx[0],
		Options{MessageGroup: crypto.ModP512Test(), StateStore: kv0, BeaconStore: bs0})
	if err != nil {
		t.Fatal(err)
	}
	now := f.h.Net.Now()
	out, ok, err := restored.RestoreFromStore(now)
	if err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	f.servers[0] = restored
	f.h.SwapEngine(vid, restored)
	f.h.ProcessExternal(vid, now, out, nil)

	f.stepUntilRound(2*epoch+1, 1_000_000)
	for _, s := range f.servers {
		if s.Round() <= 2*epoch+1 {
			t.Fatalf("server %d stuck at round %d (roster version %d); violations: %v",
				s.Index(), s.Round(), s.RosterVersion(), f.violations())
		}
		if ci := s.Definition().ClientIndex(expelled); !s.Definition().Clients[ci].Expelled {
			t.Fatalf("server %d never applied the expulsion", s.Index())
		}
	}
}

// dropVersionClient wraps a client engine and swallows every original
// broadcast copy of the certified roster update for one specific
// version — the "client misses a non-empty roster update" fault the
// catch-up and divergence machinery exists for. Dropping stops once a
// later version is seen (the boundary has passed and the loss is
// irreversible), so a catch-up replay of the same version gets through
// like any real re-delivery would.
type dropVersionClient struct {
	*Client
	version  uint64
	dropped  *int
	sawLater bool
}

func (d *dropVersionClient) Handle(now time.Time, m *Message) (*Output, error) {
	if m.Type == MsgRosterUpdate && !d.sawLater {
		if w, err := DecodeRosterUpdateMsg(m.Body); err == nil {
			if u, err := group.DecodeRosterUpdate(w.Update); err == nil {
				if u.Version == d.version {
					*d.dropped++
					return &Output{}, nil
				}
				if u.Version > d.version {
					d.sawLater = true
				}
			}
		}
	}
	return d.Client.Handle(now, m)
}

// TestClientMissedRosterUpdateCatchUp makes one client miss every copy
// of a non-empty roster update (an expulsion — exactly the update whose
// loss used to leave the schedule replica silently diverged). The chain
// gap must be detected at the next update, and the catch-up probe must
// replay the missed update so the replica provably re-converges: same
// roster version, same slot count, and the client's traffic still
// decodes.
func TestClientMissedRosterUpdateCatchUp(t *testing.T) {
	const epoch = 4
	dropped := 0
	var f *fixture
	f = newFixture(t, 2, 3, fixtureOpts{
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

	// Expel client 2 before the first boundary: version 1 is a pure
	// removal — non-empty, and it also reseeds the slot permutation, so
	// missing it is precisely the historical divergence wedge.
	f.h.StartAll()
	f.stepUntilRound(1, 1_000_000)
	if err := f.servers[0].Expel(f.clients[2].ID()); err != nil {
		t.Fatal(err)
	}

	// Run through two boundaries: v1's copies are all dropped at client
	// 0; v2 exposes the chain gap; the probe replays v1 and v2.
	f.stepUntilRound(3*epoch, 4_000_000)
	if dropped == 0 {
		t.Fatal("no version-1 roster update was ever dropped")
	}
	v := f.servers[0].RosterVersion()
	if v < 2 {
		t.Fatalf("roster version %d, want >= 2", v)
	}
	if got := f.clients[0].RosterVersion(); got != v {
		t.Fatalf("client replica stuck at version %d, servers at %d; violations: %v",
			got, v, f.violations())
	}
	if got, want := f.clients[0].sched.NumSlots(), f.servers[0].sched.NumSlots(); got != want {
		t.Fatalf("client schedule has %d slots after catch-up, servers have %d", got, want)
	}

	// The re-converged replica still composes decodable traffic.
	f.clients[0].Send([]byte("post catch-up"))
	f.stepUntilRound(f.servers[0].Round()+epoch, 2_000_000)
	found := false
	for _, d := range f.h.Deliveries {
		if string(d.Data) == "post catch-up" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("post-catch-up payload never delivered; violations: %v", f.violations())
	}
}

// TestClientResyncsFromSnapshotAfterTruncation is the catch-up wedge
// regression: the client misses a non-empty update AND every server's
// in-memory roster log has lost that version (no durable store), so the
// replay path genuinely cannot serve it. Instead of wedging forever in
// the probe loop, the server must fall back to a certified snapshot
// sync, and the client must adopt it and re-converge.
func TestClientResyncsFromSnapshotAfterTruncation(t *testing.T) {
	const epoch = 4
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

	f.h.StartAll()
	f.stepUntilRound(1, 1_000_000)
	if err := f.servers[0].Expel(f.clients[2].ID()); err != nil {
		t.Fatal(err)
	}

	// Let version 1 certify and apply on the servers (dropped at client
	// 0), then truncate it from every server's in-memory log before the
	// client's catch-up probe can request a replay.
	f.stepUntilRound(epoch+1, 2_000_000)
	if dropped == 0 {
		t.Fatal("no version-1 roster update was ever dropped")
	}
	for _, s := range f.servers {
		if s.rosterLog[1] == nil {
			t.Fatalf("server %d has no version-1 update to truncate", s.Index())
		}
		delete(s.rosterLog, 1)
	}

	f.stepUntilRound(3*epoch, 4_000_000)
	resynced := f.h.FirstEvent(f.clients[0].ID(), EventReplicaResynced)
	if resynced == nil {
		t.Fatalf("client never resynced from a snapshot; violations: %v", f.violations())
	}
	v := f.servers[0].RosterVersion()
	if got := f.clients[0].RosterVersion(); got != v {
		t.Fatalf("client replica at version %d after resync, servers at %d", got, v)
	}

	f.clients[0].Send([]byte("post resync"))
	f.stepUntilRound(f.servers[0].Round()+epoch, 2_000_000)
	found := false
	for _, d := range f.h.Deliveries {
		if string(d.Data) == "post resync" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("post-resync payload never delivered; violations: %v", f.violations())
	}
}

// dropOutputsClient wraps a client engine and swallows the first copy
// of each certified output for rounds in [from, to): the client falls
// behind just before an epoch boundary, while retransmissions — the
// retired-round ladder's replies — get through.
type dropOutputsClient struct {
	*Client
	from, to uint64
	dropped  map[uint64]bool
}

func (d *dropOutputsClient) Handle(now time.Time, m *Message) (*Output, error) {
	if m.Type == MsgOutput && m.Round >= d.from && m.Round < d.to && !d.dropped[m.Round] {
		d.dropped[m.Round] = true
		return &Output{}, nil
	}
	return d.Client.Handle(now, m)
}

// TestClientHoldsRosterUpdateUntilCaughtUp drops the last one to three
// outputs before an epoch boundary at one client, so the certified
// roster update — a non-empty one, carrying an expulsion — reaches it
// before it has consumed them. The client must hold the update, pull
// the missing outputs up the retired-round ladder, and apply the update
// at the boundary: converging without a snapshot re-sync, which would
// skip the rounds it missed.
func TestClientHoldsRosterUpdateUntilCaughtUp(t *testing.T) {
	const epoch, boundary = 6, 12
	for _, depth := range []int{1, 2} {
		for missed := uint64(1); missed <= 3; missed++ {
			t.Run(fmt.Sprintf("depth%d/missed%d", depth, missed), func(t *testing.T) {
				lag := &dropOutputsClient{from: boundary - missed, to: boundary, dropped: map[uint64]bool{}}
				f := newFixture(t, 3, 6, fixtureOpts{
					mutatePolicy: func(p *group.Policy) {
						p.BeaconEpochRounds = epoch
						p.Alpha = 0.25
					},
					mutateOpts: func(o *Options) { o.PipelineDepth = depth },
					wrapClient: func(idx int, c *Client) Engine {
						if idx != 0 {
							return nil
						}
						lag.Client = c
						return lag
					},
				})
				f.h.StartAll()
				f.stepUntilRound(epoch, 2_000_000)
				if err := f.servers[1].Expel(f.clients[5].ID()); err != nil {
					t.Fatal(err)
				}
				f.stepUntilRound(2*boundary, 4_000_000)
				if len(lag.dropped) != int(missed) {
					t.Fatalf("dropped %d outputs, want %d", len(lag.dropped), missed)
				}
				if e := f.h.FirstEvent(lag.ID(), EventReplicaResynced); e != nil {
					t.Fatalf("client re-synced at round %d instead of catching up; violations: %v",
						e.Round, f.violations())
				}
				v := f.servers[0].RosterVersion()
				if got := lag.RosterVersion(); got != v {
					t.Fatalf("client at roster version %d, servers at %d", got, v)
				}
				if dig := f.servers[0].rosterDigests[v]; !bytes.Equal(lag.applyDigest, dig[:]) {
					t.Fatalf("client's post-apply schedule digest at version %d differs from the servers'", v)
				}

				lag.Send([]byte("caught up"))
				f.stepUntilRound(f.servers[0].Round()+epoch, 2_000_000)
				for _, d := range f.h.Deliveries {
					if string(d.Data) == "caught up" {
						return
					}
				}
				t.Fatalf("payload from the caught-up client never delivered; violations: %v", f.violations())
			})
		}
	}
}
