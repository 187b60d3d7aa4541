package core

import (
	"errors"
	"fmt"

	"dissent/internal/dcnet"
)

// Checkpoints (see ARCHITECTURE.md "Durability & restart"). The DC-net
// only works while every member holds the same slot schedule, bit for
// bit, and three paths rebuild a schedule replica from someone else's
// state: a restarted server from its durable store, a mid-session
// joiner from its welcome, and an established client re-synced after
// divergence. All three carry one Checkpoint, walked by one codec and
// installed by one routine (node.restoreSchedule). Two wrappers add
// what only their path needs:
//
//	ServerCheckpoint  the server's durable restart record: α baseline,
//	                  pending roster phase, schedule certificate, and
//	                  exclusion set
//	MemberCheckpoint  the MsgJoinWelcome / MsgSnapshotSync body: the
//	                  roster the state belongs to, the certified update
//	                  anchoring it, and the beacon head

// Checkpoint is the replicated session state at a round boundary.
type Checkpoint struct {
	Version  uint64   // roster version the state belongs to
	Round    uint64   // first unretired engine round: the resume point
	SlotKeys [][]byte // pseudonym slot keys, slot order
	// SchedRound is the schedule's internal round counter, which lags
	// Round by the number of hard-timeout rounds (failed rounds advance
	// the engine round but never the schedule). Epoch rotations fire off
	// it, so a replica restored at any other counter would rotate at
	// different real rounds than everyone else's.
	SchedRound uint64
	Lens       []int32
	Idle       []int32
	Perm       []int32
	// DrainRound is the latest pipeline drain point, and PendingOps/
	// PendingNs the queued, not-yet-applied round deltas (rows of
	// len(Lens) entries, oldest first). A checkpoint captured mid-
	// pipeline needs both so the restored replica pops each delta at the
	// same round as every other; at depth 1 the queue is empty.
	DrainRound uint64
	PendingOps []int32
	PendingNs  []int32
}

// ServerCheckpoint is a server's durable restart record: everything
// needed to resume that is not derivable from the group definition, the
// stored roster-update chain, or the beacon chain's own store.
type ServerCheckpoint struct {
	Checkpoint
	PrevCount uint32 // previous round's participation (α baseline)
	RosterDue byte   // boundary crossed; roster phase pending
	CertKeys  [][]byte
	CertSigs  [][]byte // certified schedule; empty under trusted bootstrap
	ExpelIdx  []int32  // excluded client indices…
	ExpelAt   []uint64 // …and the round each was excluded at
}

// MemberCheckpoint hands a client the replicated state it lacks: the
// full client roster (so its definition replica catches up in one
// step), the checkpoint, and the beacon chain head. One server signs
// it — a trust-on-join simplification relative to the fully certified
// roster chain — but its anchor is independently verifiable: Update
// carries every server's signature and, at Version, fully determines
// Digest.
type MemberCheckpoint struct {
	Checkpoint
	Digest     [32]byte // roster digest at Version
	Update     []byte   // encoded certified RosterUpdate anchoring the checkpoint
	RosterKeys [][]byte // all client identity keys, definition order
	Expelled   []byte   // 0/1 per client, parallel to RosterKeys
	BeaconHead []byte   // 32-byte chain head the replica resumes from
}

// checkpointShape is either checkpoint wrapper; walk visits its wire
// fields in order.
type checkpointShape interface{ walk(*fields) }

// EncodeCheckpoint serializes a ServerCheckpoint or MemberCheckpoint.
func EncodeCheckpoint(p checkpointShape) []byte {
	f := fields{w: &encBuf{}}
	p.walk(&f)
	return f.w.B
}

// DecodeCheckpoint parses b into p, a *ServerCheckpoint or
// *MemberCheckpoint. It checks framing only; restoreSchedule validates
// the contents.
func DecodeCheckpoint(b []byte, p checkpointShape) error {
	f := fields{r: &decBuf{B: b}}
	p.walk(&f)
	if f.err != nil {
		return f.err
	}
	return f.r.Done()
}

func (c *Checkpoint) walk(f *fields) {
	f.u64(&c.Version)
	f.u64(&c.Round)
	f.byteSlices(&c.SlotKeys)
	f.u64(&c.SchedRound)
	f.int32s(&c.Lens)
	f.int32s(&c.Idle)
	f.int32s(&c.Perm)
	f.u64(&c.DrainRound)
	f.int32s(&c.PendingOps)
	f.int32s(&c.PendingNs)
}

func (p *ServerCheckpoint) walk(f *fields) {
	p.Checkpoint.walk(f)
	f.u32(&p.PrevCount)
	f.u8(&p.RosterDue)
	f.byteSlices(&p.CertKeys)
	f.byteSlices(&p.CertSigs)
	f.int32s(&p.ExpelIdx)
	f.u64s(&p.ExpelAt)
}

func (p *MemberCheckpoint) walk(f *fields) {
	p.Checkpoint.walk(f)
	f.digest(&p.Digest)
	f.bytes(&p.Update)
	f.byteSlices(&p.RosterKeys)
	f.bytes(&p.Expelled)
	f.bytes(&p.BeaconHead)
}

// fields is one pass over a checkpoint's wire fields, shared by both
// directions so the encoder and decoder cannot drift: with w set each
// call appends the field, otherwise it reads it from r, keeping the
// first error.
type fields struct {
	w   *encBuf
	r   *decBuf
	err error
}

func field[T any](f *fields, v *T, put func(*encBuf, T), get func(*decBuf) (T, error)) {
	switch {
	case f.w != nil:
		put(f.w, *v)
	case f.err == nil:
		*v, f.err = get(f.r)
	}
}

func (f *fields) u8(v *byte)             { field(f, v, (*encBuf).U8, (*decBuf).U8) }
func (f *fields) u32(v *uint32)          { field(f, v, (*encBuf).U32, (*decBuf).U32) }
func (f *fields) u64(v *uint64)          { field(f, v, (*encBuf).U64, (*decBuf).U64) }
func (f *fields) bytes(v *[]byte)        { field(f, v, (*encBuf).Bytes, (*decBuf).Bytes) }
func (f *fields) byteSlices(v *[][]byte) { field(f, v, (*encBuf).ByteSlices, (*decBuf).ByteSlices) }
func (f *fields) int32s(v *[]int32)      { field(f, v, (*encBuf).Int32s, (*decBuf).Int32s) }
func (f *fields) u64s(v *[]uint64)       { field(f, v, putU64s, getU64s) }

func (f *fields) digest(v *[32]byte) {
	field(f, v, func(w *encBuf, d [32]byte) { w.B = append(w.B, d[:]...) },
		func(r *decBuf) (d [32]byte, err error) {
			b, err := r.Raw(len(d))
			copy(d[:], b)
			return d, err
		})
}

func putU64s(w *encBuf, v []uint64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.U64(x)
	}
}

func getU64s(r *decBuf) ([]uint64, error) {
	n, err := r.Count(1 << 20)
	if err != nil {
		return nil, err
	}
	v := make([]uint64, n)
	for i := range v {
		if v[i], err = r.U64(); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// capture returns the server's replicated session state at its current
// round — the part of every checkpoint it persists or sends.
func (s *Server) capture() Checkpoint {
	schedRound, lens, idle, perm := s.sched.Snapshot()
	ops, ns := s.sched.PendingSnapshot()
	return Checkpoint{
		Version:    s.def.Version,
		Round:      s.roundNum,
		SlotKeys:   s.encodedSlotKeys(),
		SchedRound: schedRound,
		Lens:       toInt32(lens),
		Idle:       toInt32(idle),
		Perm:       toInt32(perm),
		DrainRound: s.drainRound,
		PendingOps: toInt32(ops),
		PendingNs:  toInt32(ns),
	}
}

// restoreSchedule validates a checkpoint and rebuilds the schedule
// replica it describes: RestoreSchedule, the beacon rotation hook, the
// pipeline lag, then the queued deltas (after SetLag, which flushes
// the queue). The node itself is not touched, so a rejected checkpoint
// leaves it as it was — hostile input becomes an error, never a panic.
func (n *node) restoreSchedule(cp *Checkpoint) (*dcnet.Schedule, error) {
	switch {
	case len(cp.SlotKeys) != len(cp.Lens):
		return nil, fmt.Errorf("checkpoint carries %d slot keys for %d slots", len(cp.SlotKeys), len(cp.Lens))
	case cp.SchedRound > cp.Round:
		return nil, errors.New("checkpoint schedule round ahead of its engine round")
	case cp.DrainRound > cp.Round:
		return nil, errors.New("checkpoint drain round ahead of its engine round")
	}
	sched, err := dcnet.RestoreSchedule(n.scheduleConfig(len(cp.Lens)), cp.SchedRound,
		toInt(cp.Lens), toInt(cp.Idle), toInt(cp.Perm))
	if err != nil {
		return nil, err
	}
	n.installRotation(sched)
	sched.SetLag(n.depth - 1)
	if err := sched.RestorePending(toInt(cp.PendingOps), toInt(cp.PendingNs)); err != nil {
		return nil, err
	}
	return sched, nil
}

func toInt32(v []int) []int32 {
	out := make([]int32, len(v))
	for i, x := range v {
		out[i] = int32(x)
	}
	return out
}

func toInt(v []int32) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}
