package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"dissent/internal/beacon"
	"dissent/internal/crypto"
	"dissent/internal/dcnet"
	"dissent/internal/group"
)

// Membership churn: expulsions, re-admissions, and new joiners become a
// first-class, beacon-anchored epoch transition. While rounds run,
// servers accumulate pending churn — blame verdicts and operator Expel
// calls queue removals, JoinRequests (gated by the admission policy)
// queue admissions. At every BeaconEpochRounds boundary the servers
// pause rounds briefly and run the roster phase:
//
//	propose:  each server broadcasts its pending admissions/removals
//	certify:  all M proposals are unioned into one canonical
//	          group.RosterUpdate (deterministically, so every server
//	          builds identical bytes) and each server signs it
//	apply:    with all M signatures collected, every replica applies
//	          the certified update, grows the slot schedule for new
//	          members, re-derives the layout permutation from the
//	          beacon output plus the roster digest, and resumes rounds
//
// Clients know the epoch schedule, so at each boundary they hold their
// next submission until the certified MsgRosterUpdate arrives (exactly
// as they hold for MsgBlameDone during accusation shuffles). Roster
// versions increase by one per boundary — also across boundaries with
// no churn — so any replica can reject stale-version roster traffic
// outright. Mechanism (the versioned, hash-chained update; see
// internal/group/roster.go) is shared; policy (who to admit or expel,
// cooldowns) stays server-side.

// --- Payload codecs ---------------------------------------------------

// JoinRequest asks a server to propose the sender for admission at the
// next epoch boundary. Expelled members seeking re-admission send it
// with an empty PubKey (their identity is already in the roster); new
// members embed their identity key, a pseudonym key to seed their slot,
// and optionally a dialable address for TCP fabrics.
type JoinRequest struct {
	Version uint64 // roster version known to the requester
	// Rejoin marks an expelled member's explicit request for
	// re-admission. A known member's request without it is only a
	// roster-sync probe (catch-up for a lost update) and must never
	// queue a re-admission — expelled clients probe too.
	Rejoin  bool
	PubKey  []byte // encoded identity key; empty for known members
	PseuKey []byte // encoded pseudonym slot key; new members only
	Addr    string // transport address; empty on address-less fabrics
	// SchedDigest carries an established member's post-apply schedule
	// digest for its Version (dcnet.Schedule.Digest captured right after
	// the version's roster update was applied). Empty when the member
	// holds no apply-point digest (fresh joiner, pre-churn session). A
	// server that retains the digest for that version compares: mismatch
	// means the member's replica silently diverged, and chain replay
	// would grow a wrong layout — it gets a certified snapshot re-sync
	// instead.
	SchedDigest []byte
}

// Encode serializes the payload.
func (p *JoinRequest) Encode() []byte {
	var e encBuf
	e.U64(p.Version)
	if p.Rejoin {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.Bytes(p.PubKey)
	e.Bytes(p.PseuKey)
	e.Bytes([]byte(p.Addr))
	e.Bytes(p.SchedDigest)
	return e.B
}

// DecodeJoinRequest parses a JoinRequest payload.
func DecodeJoinRequest(b []byte) (*JoinRequest, error) {
	d := decBuf{B: b}
	v, err := d.U64()
	if err != nil {
		return nil, err
	}
	rejoin, err := d.U8()
	if err != nil {
		return nil, err
	}
	pub, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	pseu, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	addr, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	dig, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &JoinRequest{Version: v, Rejoin: rejoin != 0, PubKey: pub, PseuKey: pseu,
		Addr: string(addr), SchedDigest: dig}, nil
}

// RosterPropose is one server's pending churn for the upcoming version.
type RosterPropose struct {
	Version uint64
	Admit   []group.RosterMember
	Remove  []group.NodeID
}

// Encode serializes the payload (list framing shared with the group
// package's RosterUpdate codec).
func (p *RosterPropose) Encode() []byte {
	var e encBuf
	e.U64(p.Version)
	e.B = group.AppendRosterMembers(e.B, p.Admit)
	e.B = group.AppendNodeIDs(e.B, p.Remove)
	return e.B
}

// DecodeRosterPropose parses a RosterPropose payload.
func DecodeRosterPropose(b []byte) (*RosterPropose, error) {
	d := decBuf{B: b}
	p := &RosterPropose{}
	var err error
	if p.Version, err = d.U64(); err != nil {
		return nil, err
	}
	if p.Admit, d.B, err = group.DecodeRosterMembers(d.B); err != nil {
		return nil, err
	}
	if p.Remove, d.B, err = group.DecodeNodeIDs(d.B); err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return p, nil
}

// RosterCert is one server's signature certifying the canonical update.
type RosterCert struct {
	Version uint64
	Sig     []byte
}

// Encode serializes the payload.
func (p *RosterCert) Encode() []byte {
	var e encBuf
	e.U64(p.Version)
	e.Bytes(p.Sig)
	return e.B
}

// DecodeRosterCert parses a RosterCert payload.
func DecodeRosterCert(b []byte) (*RosterCert, error) {
	d := decBuf{B: b}
	v, err := d.U64()
	if err != nil {
		return nil, err
	}
	sig, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &RosterCert{Version: v, Sig: sig}, nil
}

// RosterUpdateMsg is the MsgRosterUpdate transport body: the certified
// update plus the sender's post-apply schedule digest. The digest
// cannot live inside the certified update material (the proposer
// cannot predict the beacon head at apply time, and the group codec is
// strict), so it rides the server-signed transport wrapper instead —
// sufficient for divergence *detection*, since a mismatch only ever
// triggers a fully verified snapshot re-sync.
type RosterUpdateMsg struct {
	Update []byte // encoded certified group.RosterUpdate
	// SchedDigest is dcnet.Schedule.Digest() captured right after the
	// sender applied Update; empty when unrecorded (e.g. replay from a
	// store predating digest tracking).
	SchedDigest []byte
}

// Encode serializes the payload.
func (p *RosterUpdateMsg) Encode() []byte {
	var e encBuf
	e.Bytes(p.Update)
	e.Bytes(p.SchedDigest)
	return e.B
}

// DecodeRosterUpdateMsg parses a RosterUpdateMsg payload.
func DecodeRosterUpdateMsg(b []byte) (*RosterUpdateMsg, error) {
	d := decBuf{B: b}
	u, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	dig, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return &RosterUpdateMsg{Update: u, SchedDigest: dig}, nil
}

// --- Shared helpers ---------------------------------------------------

// churnEnabled reports whether epoch membership churn runs: it is
// anchored to the beacon epoch schedule, so it requires the beacon.
func (n *node) churnEnabled() bool { return n.def.Policy.BeaconEpochRounds > 0 }

// epochBoundary reports whether round is an epoch boundary — the round
// that begins a new epoch, before which the roster phase runs.
func (n *node) epochBoundary(round uint64) bool {
	return n.churnEnabled() && round > 0 && round%uint64(n.def.Policy.BeaconEpochRounds) == 0
}

// rosterPermSeed derives the layout-permutation seed applied with a
// roster change: the beacon chain head bound to the new roster digest,
// so the permutation over the enlarged slot set is unpredictable yet
// identical on every replica. The chain *head* — not Latest(), which
// is nil on a mid-session joiner whose rebound chain has no entries
// yet — agrees across established replicas and joiners alike.
func (n *node) rosterPermSeed(def *group.Definition) []byte {
	dig := def.RosterDigest()
	var beaconVal []byte
	if n.beaconChain != nil {
		h := n.beaconChain.Head()
		beaconVal = h[:]
	}
	return crypto.Hash("dissent/roster-perm", beaconVal, dig[:])
}

// Definition returns the node's current (roster-versioned) group
// definition. Callers must treat it as read-only.
func (n *node) Definition() *group.Definition { return n.def }

// RosterVersion returns the node's current roster version.
func (n *node) RosterVersion() uint64 { return n.def.Version }

// RosterDigest returns the node's current roster hash-chain head.
func (n *node) RosterDigest() [32]byte { return n.def.RosterDigest() }

// --- Server: pending churn and the roster phase -----------------------

// rosterState is one in-flight roster transition at a server.
type rosterState struct {
	version  uint64
	props    map[int]*RosterPropose
	update   *group.RosterUpdate
	sigs     map[int][]byte
	resendAt time.Time // next propose/cert rebroadcast while stuck
	resendN  int       // rebroadcasts so far (drives the backoff)
}

// Admit pre-approves an identity key (its canonical encoding) for
// admission: a JoinRequest bearing it is accepted even when the policy
// keeps OpenAdmission off. Admission still happens only through a
// certified roster update at the next epoch boundary.
func (s *Server) Admit(encodedPub []byte) {
	if s.allowlist == nil {
		s.allowlist = make(map[string]bool)
	}
	s.allowlist[string(encodedPub)] = true
}

// Expel queues a client for removal at the next epoch boundary. Unlike
// a blame verdict — which every server reaches independently and
// deterministically, so immediate exclusion stays consistent — an
// operator's Expel is known to this server alone, so the exclusion
// takes effect only when the certified roster update applies everywhere
// at once.
func (s *Server) Expel(id group.NodeID) error {
	ci := s.def.ClientIndex(id)
	if ci < 0 {
		return fmt.Errorf("core: %s is not a client of this group", id)
	}
	if s.def.Clients[ci].Expelled {
		return fmt.Errorf("core: client %s already expelled", id)
	}
	if !s.churnEnabled() {
		return errors.New("core: membership churn requires a nonzero BeaconEpochRounds")
	}
	s.pendingRemove[ci] = true
	return nil
}

// LatestRosterUpdate returns the most recently applied certified
// update, or nil before the first boundary.
func (s *Server) LatestRosterUpdate() *group.RosterUpdate { return s.lastRosterUpdate }

// rosterLogCap bounds the in-memory certified-update mirror (one entry
// per epoch boundary). With a durable StateStore configured the full
// chain persists there, so members arbitrarily far behind still catch
// up by replay; without one, members behind the cap fall back to a
// certified snapshot re-sync instead of wedging.
const rosterLogCap = 64

// persistRosterUpdate records a certified update and its post-apply
// schedule digest in the durable store. Persistence failures are
// logged, not fatal: the in-memory mirror still serves the hot path,
// and durability degrades rather than halting rounds.
func (s *Server) persistRosterUpdate(u *group.RosterUpdate, dig [32]byte) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(bucketRoster, versionKey(u.Version), u.Encode()); err != nil {
		s.log.Error("roster update persist failed", "version", u.Version, "err", err)
		return
	}
	if err := s.store.Put(bucketRosterDigest, versionKey(u.Version), dig[:]); err != nil {
		s.log.Error("roster digest persist failed", "version", u.Version, "err", err)
	}
}

// lookupRosterUpdate returns the certified update for one version from
// the in-memory mirror, falling back to the durable store — the fix
// for the rosterLogCap catch-up wedge: eviction from the mirror no
// longer strands version-behind members.
func (s *Server) lookupRosterUpdate(v uint64) *group.RosterUpdate {
	if u := s.rosterLog[v]; u != nil {
		return u
	}
	if s.store == nil {
		return nil
	}
	raw, ok := s.store.Get(bucketRoster, versionKey(v))
	if !ok {
		return nil
	}
	u, err := group.DecodeRosterUpdate(raw)
	if err != nil {
		s.log.Error("stored roster update corrupt", "version", v, "err", err)
		return nil
	}
	return u
}

// rosterDigestFor returns the recorded post-apply schedule digest for
// one roster version (in-memory mirror first, then the durable store).
func (s *Server) rosterDigestFor(v uint64) ([32]byte, bool) {
	if dig, ok := s.rosterDigests[v]; ok {
		return dig, true
	}
	if s.store != nil {
		if raw, ok := s.store.Get(bucketRosterDigest, versionKey(v)); ok && len(raw) == 32 {
			var dig [32]byte
			copy(dig[:], raw)
			return dig, true
		}
	}
	return [32]byte{}, false
}

// schedDigestDiverged reports whether a member's claimed post-apply
// schedule digest for one version provably disagrees with ours. Either
// side lacking a digest (fresh joiner, pre-churn session, unrecorded
// version) is inconclusive, not divergence.
func (s *Server) schedDigestDiverged(version uint64, memberDigest []byte) bool {
	if len(memberDigest) != 32 {
		return false
	}
	dig, ok := s.rosterDigestFor(version)
	if !ok {
		return false
	}
	return !bytes.Equal(memberDigest, dig[:])
}

// resendRosterChain replays the certified updates a version-behind
// member missed, in order, so it can re-apply the chain and unwedge.
// The member applies each sequentially (onRosterUpdate requires exact
// version succession), so envelopes go out oldest-first on one FIFO
// link. When the history is genuinely truncated (no durable store and
// the mirror evicted the version), a client falls back to a certified
// snapshot re-sync at the current version instead of staying wedged.
func (s *Server) resendRosterChain(now time.Time, to group.NodeID, fromVersion uint64, out *Output) error {
	for v := fromVersion + 1; v <= s.def.Version; v++ {
		u := s.lookupRosterUpdate(v)
		if u == nil {
			if s.def.ClientIndex(to) >= 0 {
				return s.sendSnapshotSync(now, to, out)
			}
			out.Events = append(out.Events, Event{Kind: EventProtocolViolation, Round: s.roundNum,
				Detail: fmt.Sprintf("member %s behind retained roster history (asked from %d, log starts past it)", to, fromVersion)})
			return nil
		}
		var digBytes []byte // empty when unrecorded; receivers skip the self-check
		if dig, ok := s.rosterDigestFor(v); ok {
			digBytes = dig[:]
		}
		body := (&RosterUpdateMsg{Update: u.Encode(), SchedDigest: digBytes}).Encode()
		m, err := s.sign(MsgRosterUpdate, s.roundNum, body)
		if err != nil {
			return err
		}
		out.Send = append(out.Send, Envelope{To: to, Msg: m})
	}
	return nil
}

// onJoinRequest validates and queues a join/rejoin request. Known
// members whose request carries an old roster version are replayed the
// missed certified updates first (the catch-up path for a client that
// lost a MsgRosterUpdate frame); their rejoin intent, if any, is
// re-asserted by the next retry once they are current.
func (s *Server) onJoinRequest(now time.Time, m *Message) (*Output, error) {
	if !s.churnEnabled() {
		return s.violation(m.Round, errors.New("join request but churn is disabled by policy")), nil
	}
	if s.def.ServerIndex(m.From) >= 0 {
		return s.violation(m.Round, fmt.Errorf("join request from server %s", m.From)), nil
	}
	if ci := s.def.ClientIndex(m.From); ci >= 0 {
		// Known member: rejoin (expelled), roster-sync (version-behind),
		// or an admitted joiner whose welcome was lost — verified like
		// any client message.
		if err := s.verify(m, false); err != nil {
			return s.violation(m.Round, err), nil
		}
		p, err := DecodeJoinRequest(m.Body)
		if err != nil {
			return s.violation(m.Round, err), nil
		}
		if len(p.PubKey) > 0 {
			// Full join requests from a member already in the roster mean
			// its welcome never arrived: it keeps retrying because it
			// is not bootstrapped. Its upstream re-sends a fresh welcome.
			return s.rewelcome(now, m.From)
		}
		if p.Version > s.def.Version {
			return s.violation(m.Round, fmt.Errorf("join request from the future roster version %d (current %d)",
				p.Version, s.def.Version)), nil
		}
		out := &Output{}
		if s.schedDigestDiverged(p.Version, p.SchedDigest) {
			// The member's post-apply schedule digest for its version
			// disagrees with ours: its replica silently diverged, and
			// replaying the chain onto it would Grow a wrong layout and
			// cement the divergence. Only a re-sync converges it.
			if err := s.sendSnapshotSync(now, m.From, out); err != nil {
				return nil, err
			}
			return out, nil
		}
		if p.Version < s.def.Version {
			// Expected recovery, not a violation: the member lost roster
			// updates; replay the chain so it catches up (its rejoin
			// intent, if any, lands on a retry once current).
			if err := s.resendRosterChain(now, m.From, p.Version, out); err != nil {
				return nil, err
			}
			return out, nil
		}
		if !p.Rejoin {
			return out, nil // sync probe from a current member: nothing to replay
		}
		if !s.excluded[ci] && !s.def.Clients[ci].Expelled {
			return &Output{}, nil // already active
		}
		s.pendingRejoin[ci] = true
		return &Output{}, nil
	}
	// New-member path: the request is self-certifying — the sender signs
	// with the key embedded in the body, and its NodeID must hash from
	// that key.
	p, err := DecodeJoinRequest(m.Body)
	if err != nil {
		return s.violation(m.Round, err), nil
	}
	pub, err := s.keyGrp.Decode(p.PubKey)
	if err != nil {
		return s.violation(m.Round, fmt.Errorf("join request key: %w", err)), nil
	}
	if group.IDFromKey(s.keyGrp, pub) != m.From {
		return s.violation(m.Round, fmt.Errorf("join request ID %s does not match its key", m.From)), nil
	}
	if s.signing {
		sig, err := crypto.DecodeSignature(s.keyGrp, m.Sig)
		if err != nil {
			return s.violation(m.Round, err), nil
		}
		if err := crypto.VerifyConcat(s.keyGrp, pub, "dissent/msg", sig, signedHeader(s.grpID, m), m.Body); err != nil {
			return s.violation(m.Round, fmt.Errorf("join request signature: %w", err)), nil
		}
	}
	if _, err := s.keyGrp.Decode(p.PseuKey); err != nil {
		return s.violation(m.Round, fmt.Errorf("join request pseudonym key: %w", err)), nil
	}
	if !s.def.Policy.OpenAdmission && !s.allowlist[string(p.PubKey)] {
		return &Output{Events: []Event{{Kind: EventProtocolViolation, Round: m.Round,
			Detail: fmt.Sprintf("admission denied for %s (closed admission, not pre-approved)", m.From)}}}, nil
	}
	s.pendingJoin[m.From] = p
	return &Output{}, nil
}

// rewelcome re-sends a checkpoint to an admitted member whose original
// welcome was lost. The checkpoint is current (the member bootstraps at
// the in-flight round); its anchor is the update that admitted the
// member, so the member can still verify its own admission was
// certified. Unlike the initial welcome — sent by the member's upstream
// at apply time — the recovery is served by whichever server the retry
// reaches (the joiner keeps contacting its original contact point,
// which may not be its assigned upstream); every server holds the
// identical replicated state the checkpoint needs.
func (s *Server) rewelcome(now time.Time, id group.NodeID) (*Output, error) {
	// Rate-limit per member: legitimate retries pace themselves at
	// joinRetryInterval, while a replayed join request would otherwise
	// amplify a tiny frame into a full session snapshot every time.
	if last, ok := s.welcomeSent[id]; ok && now.Sub(last) < joinRetryInterval {
		return &Output{}, nil
	}
	v, ok := s.joinedAt[id]
	if !ok {
		return s.violation(s.roundNum, fmt.Errorf("full join request from established member %s", id)), nil
	}
	if s.boundaryPending() {
		return &Output{}, nil // the joiner's next retry lands after the apply
	}
	u := s.lookupRosterUpdate(v)
	if u == nil {
		// Without a durable store the admitting update can age out of the
		// in-memory mirror; a joiner needs exactly that update (its
		// admission proof), so this stays a hard error there. With a
		// store the chain never truncates and this is unreachable.
		return &Output{Events: []Event{{Kind: EventProtocolViolation, Round: s.roundNum,
			Detail: fmt.Sprintf("cannot re-welcome %s: admitting update %d evicted from the roster log", id, v)}}}, nil
	}
	s.welcomeSent[id] = now
	out := &Output{}
	if err := s.sendCheckpoint(MsgJoinWelcome, u, id, out); err != nil {
		return nil, err
	}
	return out, nil
}

// resumeRounds restarts normal operation after a round completes (or a
// blame session closes): the roster phase first when an epoch boundary
// is due, then the next round. Accusation shuffles are dispatched
// before this runs (maybeOutput starts them directly on a shuffle
// request), so by the boundary any blame session has already closed.
func (s *Server) resumeRounds(now time.Time, out *Output) error {
	if s.rosterDue {
		more, err := s.startRoster(now)
		if err != nil {
			return err
		}
		out.merge(more)
		return nil
	}
	s.startRound(now, out)
	return nil
}

// buildProposal assembles this server's pending churn for the next
// version, applying the re-admission cooldown policy.
func (s *Server) buildProposal() *RosterPropose {
	p := &RosterPropose{Version: s.def.Version + 1}
	for _, ci := range sortedKeys(s.pendingRemove) {
		p.Remove = append(p.Remove, s.def.Clients[ci].ID)
	}
	cooldown := uint64(s.def.Policy.ReadmitCooldownRounds)
	for _, ci := range sortedKeys(s.pendingRejoin) {
		if s.pendingRemove[ci] {
			continue
		}
		if at, ok := s.expelRound[ci]; ok && s.roundNum < at+cooldown {
			continue // not yet eligible; stays pending for a later boundary
		}
		p.Admit = append(p.Admit, group.RosterMember{
			PubKey: s.keyGrp.Encode(s.def.Clients[ci].PubKey),
		})
	}
	for _, id := range sortedIDKeys(s.pendingJoin) {
		req := s.pendingJoin[id]
		p.Admit = append(p.Admit, group.RosterMember{
			PubKey:  req.PubKey,
			PseuKey: req.PseuKey,
			Addr:    req.Addr,
		})
	}
	return p
}

// rosterProposal returns this server's proposal for the next version.
// Once sent, a proposal is part of the update every server certifies,
// yet the pending churn it was built from lives in memory: it is
// persisted before it goes out, and a restarted server re-sends the
// stored one instead of building a different proposal its peers would
// never certify alongside theirs.
func (s *Server) rosterProposal() *RosterPropose {
	v := s.def.Version + 1
	if s.store == nil {
		return s.buildProposal()
	}
	if raw, ok := s.store.Get(bucketSnapshot, proposalKey); ok {
		if p, err := DecodeRosterPropose(raw); err == nil && p.Version == v {
			return p
		}
	}
	p := s.buildProposal()
	if err := s.store.Put(bucketSnapshot, proposalKey, p.Encode()); err != nil {
		s.log.Error("roster proposal persist failed", "version", v, "err", err)
	}
	return p
}

// startRoster opens the roster phase for the upcoming epoch boundary.
func (s *Server) startRoster(now time.Time) (*Output, error) {
	s.rosterDue = false
	s.phase = phaseRoster
	s.roster = &rosterState{
		version:  s.def.Version + 1,
		props:    make(map[int]*RosterPropose),
		sigs:     make(map[int][]byte),
		resendAt: now.Add(s.retry.delay(0, s.retrySeed^(s.def.Version+1))),
	}
	prop := s.rosterProposal()
	out := &Output{Timer: s.roster.resendAt}
	if err := s.broadcastServers(MsgRosterPropose, s.roundNum, prop.Encode(), out); err != nil {
		return nil, err
	}
	s.roster.props[s.idx] = prop
	more, err := s.maybeBuildUpdate(now)
	if err != nil {
		return nil, err
	}
	out.merge(more)
	return out, nil
}

// rosterTick rebroadcasts this server's proposal (and certificate,
// once built) while the roster phase is stuck waiting on peers: with
// duplicate-dropping receivers this is idempotent, and it restores
// liveness after a lost propose/cert frame. Retries follow the unified
// retransmission backoff, so a dead peer draws a decaying rebroadcast
// stream rather than a fixed-period storm.
func (s *Server) rosterTick(now time.Time) (*Output, error) {
	r := s.roster
	if s.phase != phaseRoster || r == nil {
		return &Output{}, nil
	}
	if now.Before(r.resendAt) {
		return &Output{Timer: r.resendAt}, nil
	}
	r.resendN++
	r.resendAt = now.Add(s.retry.delay(r.resendN, s.retrySeed^r.version))
	out := &Output{Timer: r.resendAt}
	if prop := r.props[s.idx]; prop != nil {
		if err := s.broadcastServers(MsgRosterPropose, s.roundNum, prop.Encode(), out); err != nil {
			return nil, err
		}
	}
	if r.update != nil {
		body := (&RosterCert{Version: r.version, Sig: r.sigs[s.idx]}).Encode()
		if err := s.broadcastServers(MsgRosterCert, s.roundNum, body, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *Server) onRosterPropose(now time.Time, m *Message) (*Output, error) {
	if err := s.verify(m, true); err != nil {
		return s.violation(s.roundNum, err), nil
	}
	p, err := DecodeRosterPropose(m.Body)
	if err != nil {
		return s.violation(s.roundNum, err), nil
	}
	if p.Version == 0 {
		return s.violation(s.roundNum, errors.New("roster proposal for version 0")), nil
	}
	if p.Version <= s.def.Version {
		// The peer is rebroadcasting a transition we already completed —
		// its copy of some cert was lost. Replay the certified chain so
		// it can apply and resume (the server-to-server analogue of the
		// client catch-up path).
		out := &Output{}
		if err := s.resendRosterChain(now, m.From, p.Version-1, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	if s.phase != phaseRoster || s.roster == nil || p.Version > s.roster.version {
		// A peer reached the boundary before us; replay once we open our
		// own roster phase.
		return s.stashMsg(m), nil
	}
	si := s.def.ServerIndex(m.From)
	if _, dup := s.roster.props[si]; dup {
		return &Output{}, nil
	}
	s.roster.props[si] = p
	return s.maybeBuildUpdate(now)
}

// maybeBuildUpdate runs once all proposals are in: union them into the
// canonical update (identical bytes on every server), sign, and
// broadcast the certification signature.
func (s *Server) maybeBuildUpdate(now time.Time) (*Output, error) {
	r := s.roster
	if r == nil || r.update != nil || len(r.props) < len(s.def.Servers) {
		return &Output{}, nil
	}
	removeSet := make(map[group.NodeID]bool)
	for si := 0; si < len(s.def.Servers); si++ {
		for _, id := range r.props[si].Remove {
			ci := s.def.ClientIndex(id)
			if ci < 0 || s.def.Clients[ci].Expelled {
				continue // invalid or redundant; dropped identically everywhere
			}
			removeSet[id] = true
		}
	}
	cooldown := uint64(s.def.Policy.ReadmitCooldownRounds)
	admitByID := make(map[group.NodeID]group.RosterMember)
	for si := 0; si < len(s.def.Servers); si++ {
		for _, m := range r.props[si].Admit {
			pub, err := s.keyGrp.Decode(m.PubKey)
			if err != nil {
				continue
			}
			id := group.IDFromKey(s.keyGrp, pub)
			if removeSet[id] || s.def.ServerIndex(id) >= 0 {
				continue
			}
			if ci := s.def.ClientIndex(id); ci >= 0 {
				if !s.def.Clients[ci].Expelled && !s.excluded[ci] {
					continue // already active
				}
				// The re-admission cooldown is group policy over
				// replicated state (expulsion rounds agree on every
				// server), so each server enforces it on the union — a
				// single server cannot short-circuit the cooldown for
				// the group.
				if at, ok := s.expelRound[ci]; ok && s.roundNum < at+cooldown {
					continue
				}
			} else if len(m.PseuKey) == 0 {
				continue // new members need a pseudonym key
			} else if _, err := s.keyGrp.Decode(m.PseuKey); err != nil {
				continue
			}
			if _, dup := admitByID[id]; !dup {
				admitByID[id] = m
			}
		}
	}
	update := &group.RosterUpdate{
		Version:    r.version,
		PrevDigest: s.def.RosterDigest(),
	}
	for _, id := range sortedIDKeys(removeSet) {
		update.Remove = append(update.Remove, id)
	}
	for _, id := range sortedIDKeys(admitByID) {
		update.Admit = append(update.Admit, admitByID[id])
	}
	sigBytes, err := group.SignRosterUpdate(update, s.grpID, s.kp, s.rand)
	if err != nil {
		return nil, err
	}
	r.update = update
	r.sigs[s.idx] = sigBytes
	out := &Output{}
	body := (&RosterCert{Version: r.version, Sig: sigBytes}).Encode()
	if err := s.broadcastServers(MsgRosterCert, s.roundNum, body, out); err != nil {
		return nil, err
	}
	more, err := s.maybeApplyRoster(now)
	if err != nil {
		return nil, err
	}
	out.merge(more)
	return out, nil
}

func (s *Server) onRosterCert(now time.Time, m *Message) (*Output, error) {
	if err := s.verify(m, true); err != nil {
		return s.violation(s.roundNum, err), nil
	}
	p, err := DecodeRosterCert(m.Body)
	if err != nil {
		return s.violation(s.roundNum, err), nil
	}
	if p.Version == 0 {
		return s.violation(s.roundNum, errors.New("roster certificate for version 0")), nil
	}
	if p.Version <= s.def.Version {
		// Stuck peer rebroadcasting a completed transition: replay the
		// certified chain (see onRosterPropose).
		out := &Output{}
		if err := s.resendRosterChain(now, m.From, p.Version-1, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	r := s.roster
	if s.phase != phaseRoster || r == nil || r.update == nil || p.Version > r.version {
		return s.stashMsg(m), nil
	}
	si := s.def.ServerIndex(m.From)
	sig, err := crypto.DecodeSignature(s.keyGrp, p.Sig)
	if err != nil {
		return s.violation(s.roundNum, err), nil
	}
	if err := crypto.Verify(s.keyGrp, s.def.Servers[si].PubKey, group.RosterSignContext,
		r.update.SignedBytes(s.grpID), sig); err != nil {
		return s.violation(s.roundNum, fmt.Errorf("server %d roster cert: %w", si, err)), nil
	}
	if _, dup := r.sigs[si]; dup {
		return &Output{}, nil
	}
	r.sigs[si] = p.Sig
	return s.maybeApplyRoster(now)
}

// onServerRosterUpdate handles a certified update replayed by a peer
// that completed a transition we are stuck in (our copy of a propose
// or cert frame was lost): the update carries every server's
// signature, so it can be verified and applied directly.
func (s *Server) onServerRosterUpdate(now time.Time, m *Message) (*Output, error) {
	if err := s.verify(m, true); err != nil {
		return s.violation(s.roundNum, err), nil
	}
	p, err := DecodeRosterUpdateMsg(m.Body)
	if err != nil {
		return s.violation(s.roundNum, err), nil
	}
	u, err := group.DecodeRosterUpdate(p.Update)
	if err != nil {
		return s.violation(s.roundNum, err), nil
	}
	if u.Version <= s.def.Version {
		return &Output{}, nil // already applied
	}
	if s.phase != phaseRoster || u.Version > s.def.Version+1 {
		return s.stashMsg(m), nil
	}
	out := &Output{}
	if err := s.applyCertifiedRoster(now, u, out); err != nil {
		// A replayed update that fails verification is a peer fault,
		// not a local fatal: stay in the phase (retries continue).
		return s.violation(s.roundNum, err), nil
	}
	s.roster = nil
	s.phase = phaseRunning
	s.startRound(now, out)
	return out, nil
}

// maybeApplyRoster applies the fully certified update and resumes
// rounds (or a pending blame session).
func (s *Server) maybeApplyRoster(now time.Time) (*Output, error) {
	r := s.roster
	if r == nil || r.update == nil || len(r.sigs) < len(s.def.Servers) {
		return &Output{}, nil
	}
	update := r.update
	update.Sigs = make([][]byte, len(s.def.Servers))
	for i := range update.Sigs {
		update.Sigs[i] = r.sigs[i]
	}
	out := &Output{}
	if err := s.applyCertifiedRoster(now, update, out); err != nil {
		return nil, err
	}
	s.roster = nil
	s.phase = phaseRunning
	s.startRound(now, out)
	return out, nil
}

// applyCertifiedRoster applies one certified update to this server's
// replica: the definition swap, seeds, and attachments replayRosterUpdate
// shares with restore, then slot keys for new members, exclusion
// bookkeeping, schedule growth, permutation reseed, welcomes for
// joiners, and the client broadcast.
func (s *Server) applyCertifiedRoster(now time.Time, u *group.RosterUpdate, out *Output) error {
	oldN := len(s.def.Clients)
	if err := s.replayRosterUpdate(u); err != nil {
		return err
	}
	newDef := s.def

	for _, id := range u.Remove {
		ci := newDef.ClientIndex(id)
		s.excluded[ci] = true
		if _, ok := s.expelRound[ci]; !ok {
			s.expelRound[ci] = s.roundNum
		}
		delete(s.pendingRemove, ci)
		// A pending rejoin survives: for a blame-expelled client the
		// removal here merely formalizes the earlier verdict, and its
		// rejoin request stays queued behind the cooldown.
		out.Events = append(out.Events, Event{Kind: EventMemberExpelled, Round: s.roundNum, Culprit: id})
	}

	var welcomes []group.NodeID
	for _, m := range u.Admit {
		pub, err := s.keyGrp.Decode(m.PubKey)
		if err != nil {
			return fmt.Errorf("core: admitted key: %w", err)
		}
		id := group.IDFromKey(s.keyGrp, pub)
		ci := newDef.ClientIndex(id)
		if ci < oldN {
			// Re-admission: original seeds and slot survive.
			delete(s.excluded, ci)
			delete(s.expelRound, ci)
			delete(s.pendingRejoin, ci)
		} else {
			// New member (seed and attachment done above): slot key.
			pseu, err := s.keyGrp.Decode(m.PseuKey)
			if err != nil {
				return fmt.Errorf("core: joiner %s pseudonym key: %w", id, err)
			}
			s.slotKeys = append(s.slotKeys, pseu)
			delete(s.pendingJoin, id)
			if m.Addr != "" {
				out.NewPeers = append(out.NewPeers, PeerInfo{ID: id, Addr: m.Addr})
			}
			if newDef.UpstreamServer(ci) == s.idx {
				welcomes = append(welcomes, id)
			}
		}
		out.Events = append(out.Events, Event{Kind: EventMemberJoined, Round: s.roundNum, Culprit: id})
	}

	if len(u.Admit)+len(u.Remove) > 0 {
		s.sched.Grow(len(newDef.Clients)-oldN, s.rosterPermSeed(newDef))
	}
	// Certified removals shrink the α-policy baseline (§3.7) with the
	// roster: a formally removed member must not count toward the
	// participation floor of the next round. Identical on every server,
	// since the update and exclusion set are.
	if expected := s.expectedClients(); s.prevCount > expected {
		s.prevCount = expected
	}
	s.lastRosterUpdate = u
	s.rosterLog[u.Version] = u
	if u.Version > rosterLogCap {
		delete(s.rosterLog, u.Version-rosterLogCap)
		delete(s.rosterDigests, u.Version-rosterLogCap)
	}
	// The post-apply schedule digest: captured after Grow and before any
	// further round advances, so every replica applying this update at
	// its boundary computes the identical value. It anchors divergence
	// detection (schedDigestDiverged) and rides every MsgRosterUpdate.
	dig := s.sched.Digest()
	s.rosterDigests[u.Version] = dig
	s.persistRosterUpdate(u, dig)
	s.persistSnapshot()
	s.log.Info("roster update applied", "round", s.roundNum, "version", newDef.Version,
		"admitted", len(u.Admit), "removed", len(u.Remove))
	out.Events = append(out.Events, Event{Kind: EventRosterChanged, Round: s.roundNum,
		Detail: fmt.Sprintf("version %d (%d admitted, %d removed)", newDef.Version, len(u.Admit), len(u.Remove))})

	// Broadcast the certified update to attached clients (including the
	// joiners just added to myClients — they ignore it and wait for
	// their welcome, which follows on the same FIFO link).
	body := (&RosterUpdateMsg{Update: u.Encode(), SchedDigest: dig[:]}).Encode()
	if err := s.broadcastClients(MsgRosterUpdate, s.roundNum, body, out); err != nil {
		return err
	}
	for _, id := range welcomes {
		if err := s.sendCheckpoint(MsgJoinWelcome, u, id, out); err != nil {
			return err
		}
	}
	return nil
}

// memberCheckpoint assembles the MsgJoinWelcome / MsgSnapshotSync body:
// the certified update u as the verifiable anchor, the full roster, the
// checkpoint, and the beacon head. It names no slot — the server cannot
// link an established member to its anonymous slot — so every member
// locates its own by its pseudonym key.
func (s *Server) memberCheckpoint(u *group.RosterUpdate) []byte {
	cp := &MemberCheckpoint{
		Checkpoint: s.capture(),
		Digest:     s.def.RosterDigest(),
		Update:     u.Encode(),
	}
	for _, c := range s.def.Clients {
		cp.RosterKeys = append(cp.RosterKeys, s.keyGrp.Encode(c.PubKey))
		if c.Expelled {
			cp.Expelled = append(cp.Expelled, 1)
		} else {
			cp.Expelled = append(cp.Expelled, 0)
		}
	}
	if s.beaconChain != nil {
		head := s.beaconChain.Head()
		cp.BeaconHead = head[:]
	}
	return EncodeCheckpoint(cp)
}

// sendCheckpoint sends one member its checkpoint anchored by u: a
// MsgJoinWelcome (u admitted the joiner) or a MsgSnapshotSync (u is
// the latest update).
func (s *Server) sendCheckpoint(t MsgType, u *group.RosterUpdate, id group.NodeID, out *Output) error {
	m, err := s.sign(t, s.roundNum, s.memberCheckpoint(u))
	if err != nil {
		return err
	}
	out.Send = append(out.Send, Envelope{To: id, Msg: m})
	return nil
}

// sendSnapshotSync ships an established member its checkpoint so it can
// replace a diverged or behind-retained-history schedule replica
// instead of wedging. The anchor is the latest certified update: the
// member verifies all m signatures over it and checks the checkpoint's
// roster digest against the update's before adopting anything.
func (s *Server) sendSnapshotSync(now time.Time, id group.NodeID, out *Output) error {
	u := s.lastRosterUpdate
	if u == nil {
		// Pre-churn session: no certified update exists to anchor a
		// snapshot. Nothing diverged either — the schedule is still the
		// certified setup one — so there is nothing to re-sync.
		out.Events = append(out.Events, Event{Kind: EventProtocolViolation, Round: s.roundNum,
			Detail: fmt.Sprintf("cannot snapshot-sync %s before the first certified roster update", id)})
		return nil
	}
	// Rate-limit per member like rewelcome: re-sync probes pace at
	// rosterSyncInterval, and a replayed probe must not amplify into a
	// full checkpoint every time. Past a boundary not yet applied, the
	// member's next probe lands after the apply.
	if last, ok := s.welcomeSent[id]; ok && now.Sub(last) < joinRetryInterval || s.boundaryPending() {
		return nil
	}
	s.welcomeSent[id] = now
	if err := s.sendCheckpoint(MsgSnapshotSync, u, id, out); err != nil {
		return err
	}
	s.log.Info("snapshot re-sync sent", "member", id.String(), "version", s.def.Version, "round", s.roundNum)
	return nil
}

// sortedIDKeys returns a NodeID-keyed map's keys in canonical order.
func sortedIDKeys[V any](m map[group.NodeID]V) []group.NodeID {
	ids := make([]group.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		return bytes.Compare(ids[a][:], ids[b][:]) < 0
	})
	return ids
}

// boundaryPending reports whether an epoch boundary has been crossed
// but its roster update not yet applied. A checkpoint sent to a member
// then would name a first round the member must not submit before the
// update, so welcomes and re-syncs wait for the apply.
func (s *Server) boundaryPending() bool { return s.rosterDue || s.phase == phaseRoster }

// --- Client: roster application, rejoin, joining ----------------------

// Expelled reports whether this client is currently expelled (by blame
// verdict or certified removal) and therefore not submitting.
func (c *Client) Expelled() bool { return c.expelled }

// Joining reports whether this engine is a prospective member still
// awaiting admission.
func (c *Client) Joining() bool { return c.joining && !c.ready }

// RequestRejoin asks the client's upstream server to propose it for
// re-admission at the next eligible epoch boundary. The caller
// transmits the returned envelopes like any engine output.
func (c *Client) RequestRejoin(now time.Time) (*Output, error) {
	if !c.churnEnabled() {
		return nil, errors.New("core: membership churn requires a nonzero BeaconEpochRounds")
	}
	if !c.expelled {
		return nil, errors.New("core: client is not expelled")
	}
	body := (&JoinRequest{Version: c.def.Version, Rejoin: true}).Encode()
	m, err := c.sign(MsgJoinRequest, c.round, body)
	if err != nil {
		return nil, err
	}
	return &Output{Send: []Envelope{{To: c.upstream, Msg: m}}}, nil
}

// onRosterUpdate verifies a certified roster transition and applies it,
// or holds it while outputs before its boundary are still missing.
func (c *Client) onRosterUpdate(now time.Time, m *Message) (*Output, error) {
	if c.joining && !c.ready {
		// A joiner's own admission arrives as a welcome anchored by the
		// same update; the broadcast copy is redundant for it.
		return &Output{}, nil
	}
	if err := c.verify(m, true); err != nil {
		return c.violation(err), nil
	}
	p, err := DecodeRosterUpdateMsg(m.Body)
	if err != nil {
		return c.violation(err), nil
	}
	u, err := group.DecodeRosterUpdate(p.Update)
	if err != nil {
		return c.violation(err), nil
	}
	if u.Version <= c.def.Version {
		// Benign: a catch-up replay racing the slow original (both
		// apply-able copies of a version we already hold). Same silent
		// drop as the server-side handler.
		return &Output{}, nil
	}
	if u.Version != c.def.Version+1 {
		return c.violation(fmt.Errorf("roster update version %d rejected (current %d, chain gap)",
			u.Version, c.def.Version)), nil
	}
	if c.ready && len(c.inflight) > 0 {
		// Servers broadcast the update only after retiring every round
		// before its boundary, so a round still in flight here means we
		// lost its output. Applying now would grow a schedule that has not
		// reached the boundary, and the replica would diverge. Hold the
		// update and pull the missing outputs up the retired-round ladder
		// instead; onOutput applies it once we have drained.
		c.held = &heldRoster{u: u, digest: p.SchedDigest}
		return c.climbToHeld(now, c.round)
	}
	return c.applyRosterUpdate(now, u, p.SchedDigest)
}

// heldRoster is a certified roster update waiting for the outputs
// before its boundary.
type heldRoster struct {
	u      *group.RosterUpdate
	digest []byte    // the server's post-apply schedule digest
	until  time.Time // deadline for the next missing output
}

// climbToHeld continues the catch-up behind a held roster update. Once
// every output before its boundary is in, the update applies. Until
// then the oldest in-flight submission is re-sent — unless it went out
// at or after round sent, i.e. during this call — and the server answers
// it with the retained certified output. A catch-up that stalls past
// rosterSyncInterval falls back to Tick.
func (c *Client) climbToHeld(now time.Time, sent uint64) (*Output, error) {
	if len(c.inflight) == 0 {
		h := c.held
		c.held = nil
		return c.applyRosterUpdate(now, h.u, h.digest)
	}
	c.held.until = now.Add(rosterSyncInterval)
	out := &Output{Timer: c.held.until}
	if cr := c.inflight[0]; cr.r == c.nextOut && cr.r < sent && cr.sub != nil {
		out.Send = []Envelope{{To: c.upstream, Msg: cr.sub}}
	}
	return out, nil
}

// applyRosterUpdate applies a verified certified roster update that
// extends our definition by one version.
func (c *Client) applyRosterUpdate(now time.Time, u *group.RosterUpdate, schedDigest []byte) (*Output, error) {
	newDef, err := c.def.ApplyRosterUpdate(u)
	if err != nil {
		return c.violation(err), nil
	}
	grown := len(newDef.Clients) - len(c.def.Clients)
	reshaped := len(u.Admit)+len(u.Remove) > 0
	c.def = newDef
	out := &Output{}
	for _, id := range u.Remove {
		if id == c.id {
			// Emit only on the actual transition: a blame verdict may
			// have expelled us already (onBlameDone emitted then), and
			// this removal just formalizes it — applications looping on
			// EventMemberExpelled → Rejoin must not see a duplicate.
			if !c.expelled {
				out.Events = append(out.Events, Event{Kind: EventMemberExpelled, Round: c.round, Culprit: id})
			}
			c.expelled = true
			continue
		}
		out.Events = append(out.Events, Event{Kind: EventMemberExpelled, Round: c.round, Culprit: id})
	}
	for _, am := range u.Admit {
		pub, err := c.keyGrp.Decode(am.PubKey)
		if err != nil {
			continue
		}
		id := group.IDFromKey(c.keyGrp, pub)
		if id == c.id {
			c.expelled = false
		}
		out.Events = append(out.Events, Event{Kind: EventMemberJoined, Round: c.round, Culprit: id})
	}
	if c.ready && len(u.Admit)+len(u.Remove) > 0 {
		c.sched.Grow(grown, c.rosterPermSeed(newDef))
	}
	diverged := false
	if c.ready {
		// Capture the post-apply schedule digest — the replication point
		// every replica reaches with identical state — and compare it to
		// the server's copy riding the update. A mismatch means our
		// replica silently diverged before this boundary (e.g. we applied
		// a caught-up update before draining the rounds it presupposed);
		// submitting under the wrong layout would disrupt rounds, so we
		// hold and probe for a certified snapshot re-sync instead.
		dig := c.sched.Digest()
		c.applyDigest = dig[:]
		diverged = len(schedDigest) == 32 && !bytes.Equal(schedDigest, dig[:])
	}
	out.Events = append(out.Events, Event{Kind: EventRosterChanged, Round: c.round,
		Detail: fmt.Sprintf("version %d (%d admitted, %d removed)", newDef.Version, len(u.Admit), len(u.Remove))})

	c.awaitingRoster = false
	if c.round > c.rosterDone {
		c.rosterDone = c.round
	}
	// An applied roster update marks a pipeline drain point (the servers
	// drained before running the roster phase); later rounds ramp their
	// delta-queue depth from here. Recorded before the not-ready/expelled
	// early returns so observer replicas track the group's layout too.
	if c.ready && c.nextOut > c.drain {
		c.drain = c.nextOut
	}
	if diverged {
		c.awaitingRoster = true
		c.resubmitPending = false
		out.Events = append(out.Events, Event{Kind: EventProtocolViolation, Round: c.round,
			Detail: fmt.Sprintf("schedule replica diverged at roster version %d (post-apply digest mismatch); requesting snapshot re-sync", newDef.Version)})
		probe, err := c.Tick(now) // the catch-up probe carries our digest; the server answers with MsgSnapshotSync
		if err != nil {
			return nil, err
		}
		out.merge(probe)
		return out, nil
	}
	if !c.ready || c.awaitingBlame || c.expelled {
		c.resubmitPending = false
		return out, nil
	}
	if c.resubmitPending {
		c.resubmitPending = false
		sub, err := c.resubmitAfterRoster(now, reshaped)
		if err != nil {
			return nil, err
		}
		out.merge(sub)
		return out, nil
	}
	sub, err := c.submitRound(now)
	if err != nil {
		return nil, err
	}
	out.merge(sub)
	return out, nil
}

// resubmitAfterRoster re-sends the vector a failed round discarded
// (parked across the epoch boundary). If the roster update reshaped
// the schedule — any non-empty update reseeds the layout permutation,
// and admissions grow it — the saved vector was composed under the old
// layout; the slot payload is recovered and re-queued so the data
// still rides the next round.
func (c *Client) resubmitAfterRoster(now time.Time, reshaped bool) (*Output, error) {
	cr := c.parked
	c.parked = nil
	if cr == nil {
		return c.submitRound(now)
	}
	if !reshaped && cr.vec != nil && len(cr.vec) == c.sched.Len() {
		cr.r = c.round
		sub, err := c.submitVector(now, cr, cr.vec)
		if err != nil {
			return nil, err
		}
		c.inflight = append(c.inflight, cr)
		c.round++
		return sub, nil
	}
	c.requeueSent(cr)
	c.retireRound(cr)
	return c.submitRound(now)
}

// onCheckpoint installs a server-signed MemberCheckpoint: a joiner's
// MsgJoinWelcome, or an established member's MsgSnapshotSync — the
// forced re-sync after a post-apply digest mismatch or a catch-up past
// the retained roster history. The two differ only in the precondition
// (joining or ready), the joiner's check that the anchoring update
// admits it, and the events emitted.
func (c *Client) onCheckpoint(now time.Time, m *Message) (*Output, error) {
	welcome := m.Type == MsgJoinWelcome
	if welcome && !c.Joining() || !welcome && !c.ready {
		return &Output{}, nil
	}
	if err := c.verify(m, true); err != nil {
		return c.violation(err), nil
	}
	var cp MemberCheckpoint
	if err := DecodeCheckpoint(m.Body, &cp); err != nil {
		return c.violation(fmt.Errorf("%s: %w", m.Type, err)), nil
	}
	if cp.Version < c.def.Version {
		return &Output{}, nil // stale, racing updates we already applied
	}
	def, anchor, slot, sched, err := c.checkCheckpoint(&cp, welcome)
	if err != nil {
		return c.violation(fmt.Errorf("%s: %w", m.Type, err)), nil
	}
	idx := def.ClientIndex(c.id)
	seeds, err := c.serverSeedsFor(def, idx)
	if err != nil {
		return nil, err
	}
	if c.beaconChain != nil {
		// Resume the chain from the checkpoint's head, trusted like the
		// rest of it (round outputs re-verify every entry appended from
		// here). A joiner's chain is empty; a re-synced member's may have
		// diverged with its schedule and is discarded.
		var head beacon.Value
		copy(head[:], cp.BeaconHead)
		if err := c.beaconChain.ResetTrusted(head); err != nil {
			return nil, err
		}
	}
	// In-flight and parked rounds were composed under the replaced
	// layout and can never match a certified output now: requeue their
	// payload bytes (newest first, so they land oldest-first) and drop
	// them.
	for i := len(c.inflight) - 1; i >= 0; i-- {
		c.requeueSent(c.inflight[i])
		c.retireRound(c.inflight[i])
	}
	c.inflight = c.inflight[:0]
	if c.parked != nil {
		c.requeueSent(c.parked)
		c.retireRound(c.parked)
		c.parked = nil
	}

	c.def, c.idx, c.serverSeeds = def, idx, seeds
	c.upstream = def.Servers[def.UpstreamServer(idx)].ID
	c.sched, c.mySlot = sched, slot
	c.round, c.nextOut, c.rosterDone, c.drain = cp.Round, cp.Round, cp.Round, cp.DrainRound
	c.ready = true
	c.expelled = def.Clients[idx].Expelled
	c.awaitingRoster, c.resubmitPending, c.reqPending = false, false, false
	c.held, c.nextStreams = nil, nil
	// A checkpoint taken where its anchoring update applied carries that
	// version's post-apply digest; a mid-epoch one leaves none until the
	// next boundary (catch-up probes then omit it).
	c.applyDigest = nil
	if anchor == cp.Version && c.epochBoundary(cp.Round) {
		dig := sched.Digest()
		c.applyDigest = dig[:]
	}

	out := &Output{Events: []Event{{Kind: EventReplicaResynced, Round: cp.Round,
		Detail: fmt.Sprintf("version %d, slot %d of %d", cp.Version, slot, len(cp.Lens))}}}
	if welcome {
		out.Events = []Event{
			{Kind: EventScheduleReady, Round: cp.Round, Detail: fmt.Sprintf("slot %d of %d (joined mid-session)", slot, len(cp.Lens))},
			{Kind: EventMemberJoined, Round: cp.Round, Culprit: c.id},
			{Kind: EventRosterChanged, Round: cp.Round, Detail: fmt.Sprintf("version %d (joined)", cp.Version)},
		}
	}
	sub, err := c.submitRound(now)
	if err != nil {
		return nil, err
	}
	out.merge(sub)
	return out, nil
}

// checkCheckpoint verifies a member checkpoint against our replica and
// returns the rebuilt definition, the anchoring update's version, our
// slot, and the restored schedule. The client itself is not touched.
// The checkpoint is trusted from the one server that signed it, but its
// anchor is not: the update must carry every server's signature, at
// the checkpoint's version it must yield the same roster digest, and a
// joiner's must admit it. Our slot is the one carrying our pseudonym
// key.
func (c *Client) checkCheckpoint(cp *MemberCheckpoint, welcome bool) (*group.Definition, uint64, int, *dcnet.Schedule, error) {
	fail := func(msg string) (*group.Definition, uint64, int, *dcnet.Schedule, error) {
		return nil, 0, 0, nil, errors.New(msg)
	}
	if len(cp.RosterKeys) != len(cp.Expelled) {
		return fail("roster shape mismatch")
	}
	expelled := make([]bool, len(cp.Expelled))
	for i, b := range cp.Expelled {
		expelled[i] = b != 0
	}
	def, err := group.RebuildDefinition(c.def, cp.Version, cp.Digest, cp.RosterKeys, expelled)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	u, err := group.DecodeRosterUpdate(cp.Update)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	// A re-sent welcome (original lost) checkpoints a later version than
	// the admitting update it embeds; the anchor can only lag.
	if u.Version > cp.Version {
		return fail("anchoring update version ahead of the checkpoint")
	}
	if err := c.def.VerifyRosterUpdateSigs(u); err != nil {
		return nil, 0, 0, nil, err
	}
	// At the anchor's own version the digest is fully derivable from the
	// certified update — never trust the checkpoint's copy there, or a
	// wrong digest would wedge us out of every later update's chain
	// check. For later versions it is trusted like the rest.
	if u.Version == cp.Version && u.Digest(c.grpID) != cp.Digest {
		return fail("roster digest does not match the certified update")
	}
	if def.ClientIndex(c.id) < 0 {
		return fail("roster does not include us")
	}
	if welcome {
		myKey := c.keyGrp.Encode(c.kp.Public)
		admitted := false
		for _, am := range u.Admit {
			admitted = admitted || bytes.Equal(am.PubKey, myKey)
		}
		if !admitted {
			return fail("anchoring update does not admit us")
		}
	}
	slot := -1
	myPseu := c.keyGrp.Encode(c.pseudonym.Public)
	for i, sk := range cp.SlotKeys {
		if bytes.Equal(sk, myPseu) {
			slot = i
			break
		}
	}
	if slot < 0 {
		return fail("slot keys do not carry our pseudonym key")
	}
	if c.beaconChain != nil && len(cp.BeaconHead) != len(beacon.Value{}) {
		return fail("beacon head malformed")
	}
	sched, err := c.restoreSchedule(&cp.Checkpoint)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	return def, u.Version, slot, sched, nil
}

// NewJoinerClient builds a client engine for a prospective member whose
// key is not (yet) in the group definition. Start sends a JoinRequest
// instead of a pseudonym submission; once a certified roster update
// admits the key, the upstream server's welcome bootstraps the
// engine mid-session and it begins submitting like any client.
// advertiseAddr is the dialable address servers should attach for this
// node (empty on address-less fabrics like SimNet).
func NewJoinerClient(def *group.Definition, kp *crypto.KeyPair, advertiseAddr string, opts Options) (*Client, error) {
	if def.Policy.BeaconEpochRounds == 0 {
		return nil, errors.New("core: joining requires a group with membership churn (BeaconEpochRounds > 0)")
	}
	c := newClient(def, kp, opts)
	if def.ClientIndex(c.id) >= 0 || def.ServerIndex(c.id) >= 0 {
		return nil, errors.New("core: key already belongs to this group (use NewClient)")
	}
	c.idx = -1
	c.joining = true
	c.joinAddr = advertiseAddr
	c.upstream = def.Servers[0].ID // contact point until admission assigns one
	return c, nil
}

// joinRetryInterval paces join-request retries: the single frame may
// be lost, or the operator may Admit the key only after the joiner
// started. Duplicate requests just overwrite the pending entry.
const joinRetryInterval = time.Second

// rosterSyncInterval paces a held client's catch-up probes: when the
// certified update it is waiting for does not arrive (lost frame), it
// asks its upstream server to replay the missed chain.
const rosterSyncInterval = time.Second

// startJoin generates the pseudonym key and sends the join request.
func (c *Client) startJoin(now time.Time) (*Output, error) {
	pseu, err := crypto.GenerateKeyPair(c.keyGrp, c.rand)
	if err != nil {
		return nil, err
	}
	c.pseudonym = pseu
	return c.sendJoinRequest(now)
}

// sendJoinRequest (re-)sends the join request with the same pseudonym
// key — the admitting slot must match the key generated at Start — and
// arms the retry timer.
func (c *Client) sendJoinRequest(now time.Time) (*Output, error) {
	body := (&JoinRequest{
		Version: c.def.Version,
		PubKey:  c.keyGrp.Encode(c.kp.Public),
		PseuKey: c.keyGrp.Encode(c.pseudonym.Public),
		Addr:    c.joinAddr,
	}).Encode()
	m, err := c.sign(MsgJoinRequest, 0, body)
	if err != nil {
		return nil, err
	}
	return &Output{
		Send:  []Envelope{{To: c.upstream, Msg: m}},
		Timer: now.Add(joinRetryInterval),
	}, nil
}
