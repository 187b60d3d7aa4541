package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"sync"
	"time"

	"dissent"
)

// A post travels as one frame in its sender's slot byte stream:
// magic(2) | post id(4) | body length(4) | body. The slot concatenates
// queued payloads and may split one across rounds, so receivers
// reassemble frames per slot.
const (
	frameMagic  = 0xD15E
	frameHeader = 10
)

// post is one application payload the generator issued.
type post struct {
	id        uint32
	sender    int // client definition index
	size      int
	hash      uint64
	warm      bool // due before the measured window opened
	due       time.Time
	sendStart time.Time
	sendEnd   time.Time
	sendErr   error

	// Set by the observer under registry.mu.
	delivered time.Time
	round     uint64
}

// registry holds every post issued in a run, by id (ids start at 1).
type registry struct {
	seed  maphash.Seed
	mu    sync.RWMutex
	posts []*post
}

func newRegistry() *registry { return &registry{seed: maphash.MakeSeed()} }

func (r *registry) add(p *post) {
	r.mu.Lock()
	p.id = uint32(len(r.posts) + 1)
	r.posts = append(r.posts, p)
	r.mu.Unlock()
}

func (r *registry) get(id uint32) *post {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if id == 0 || int(id) > len(r.posts) {
		return nil
	}
	return r.posts[id-1]
}

func (r *registry) all() []*post {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*post(nil), r.posts...)
}

// clientSink reassembles one client's slot streams into frames and
// checks each frame against what was sent.
type clientSink struct {
	reg      *registry
	observer func(p *post, round uint64) // nil except on the observer

	mu      sync.Mutex
	partial map[int][]byte // slot → bytes of an unfinished frame
	got     []bool         // by post id
	bad     []string
}

func newClientSink(reg *registry, observer func(*post, uint64)) *clientSink {
	return &clientSink{reg: reg, observer: observer, partial: make(map[int][]byte)}
}

// drain consumes a client's Messages channel until it closes.
func (s *clientSink) drain(ch <-chan dissent.RoundOutput) {
	for d := range ch {
		if len(d.Data) > 0 {
			s.deliver(d)
		}
	}
}

func (s *clientSink) deliver(d dissent.RoundOutput) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := d.Data
	if p := s.partial[d.Slot]; len(p) > 0 {
		buf = append(p, d.Data...)
	}
	for len(buf) >= frameHeader {
		if binary.BigEndian.Uint16(buf) != frameMagic {
			s.fail("round %d slot %d: stream does not start with a frame", d.Round, d.Slot)
			buf = nil
			break
		}
		id := binary.BigEndian.Uint32(buf[2:])
		n := frameHeader + int(binary.BigEndian.Uint32(buf[6:]))
		if len(buf) < n {
			break
		}
		s.frame(id, buf[:n], d.Round)
		buf = buf[n:]
	}
	if len(buf) > 0 {
		s.partial[d.Slot] = append([]byte(nil), buf...)
	} else {
		delete(s.partial, d.Slot)
	}
}

func (s *clientSink) frame(id uint32, frame []byte, round uint64) {
	p := s.reg.get(id)
	switch {
	case p == nil:
		s.fail("round %d: frame for unknown post %d", round, id)
		return
	case len(frame) != p.size || maphash.Bytes(s.reg.seed, frame) != p.hash:
		s.fail("round %d: post %d arrived with different bytes than were sent", round, id)
		return
	}
	for int(id) >= len(s.got) {
		s.got = append(s.got, false)
	}
	if s.got[id] {
		return // a retransmitted round carries it again
	}
	s.got[id] = true
	if s.observer != nil {
		s.observer(p, round)
	}
}

func (s *clientSink) fail(format string, args ...any) {
	if len(s.bad) < 8 {
		s.bad = append(s.bad, fmt.Sprintf(format, args...))
	}
}

func (s *clientSink) has(id uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(id) < len(s.got) && s.got[id]
}

func (s *clientSink) failures() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.bad...)
}

// serverSink digests every round's certified output as one server
// decoded it, so servers can be compared round by round.
type serverSink struct {
	mu      sync.Mutex
	digests map[uint64]uint64
	cur     uint64
	h       maphash.Hash
	open    bool
}

func newServerSink(seed maphash.Seed) *serverSink {
	s := &serverSink{digests: make(map[uint64]uint64)}
	s.h.SetSeed(seed)
	return s
}

// drain consumes one server incarnation's Messages channel. A restarted
// server drains into the same sink; a round still open when an
// incarnation stops may be incomplete, so it is dropped rather than
// compared.
func (s *serverSink) drain(ch <-chan dissent.RoundOutput) {
	defer func() {
		s.mu.Lock()
		s.open = false
		s.mu.Unlock()
	}()
	for d := range ch {
		s.mu.Lock()
		if s.open && d.Round != s.cur {
			s.digests[s.cur] = s.h.Sum64()
			s.open = false
		}
		if !s.open {
			s.h.Reset()
			s.cur, s.open = d.Round, true
		}
		var hdr [12]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(d.Slot))
		binary.BigEndian.PutUint64(hdr[4:], uint64(len(d.Data)))
		s.h.Write(hdr[:])
		s.h.Write(d.Data)
		s.mu.Unlock()
	}
}

// rounds returns the digests of every round this server finished.
func (s *serverSink) rounds() map[uint64]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]uint64, len(s.digests))
	for r, d := range s.digests {
		out[r] = d
	}
	return out
}

// generator is the run's single load source. It owns the payload and
// poster-order streams drawn from the workload seed, so the same seed
// issues the same bytes from the same clients in the same order.
type generator struct {
	w       *workload
	reg     *registry
	clients []*member
	payload *rand.ChaCha8
	order   []int // poster client indices, in seeded order
	cursor  int
	// notify carries the id of every post the observer completes. Its
	// buffer holds every post a run can have in flight, so the observer
	// never waits on the generator.
	notify      chan uint32
	done        chan struct{}
	outstanding map[int]int
	windowStart time.Time
	lateMax     time.Duration
	// unsent holds the due times, inside the window, of open-loop posts
	// never sent because every poster still had a post undelivered
	// when the window closed.
	unsent []time.Time
	buf    []byte
}

func newGenerator(w *workload, reg *registry, clients []*member, posters []int, seed uint64) *generator {
	g := &generator{
		w:           w,
		reg:         reg,
		clients:     clients,
		payload:     rand.NewChaCha8(seedBytes(seed, "payload")),
		order:       append([]int(nil), posters...),
		notify:      make(chan uint32, 1<<16),
		done:        make(chan struct{}),
		outstanding: make(map[int]int),
		buf:         make([]byte, w.postSize),
	}
	r := rand.New(rand.NewChaCha8(seedBytes(seed, "posters")))
	r.Shuffle(len(g.order), func(i, j int) { g.order[i], g.order[j] = g.order[j], g.order[i] })
	return g
}

// completed is the observer's hook: hand the post back to the
// generator unless the generator has already stopped.
func (g *generator) completed(p *post) {
	select {
	case g.notify <- p.id:
	case <-g.done:
	}
}

// run issues load from start until stop, posts due before windowStart
// being warm-up, then returns. Open loops send on a fixed schedule;
// closed loops keep a fixed number of posts outstanding per sender.
func (g *generator) run(ctx context.Context, start, windowStart, stop time.Time) {
	defer close(g.done)
	g.windowStart = windowStart
	if g.w.rate > 0 {
		g.openLoop(ctx, start, stop)
	} else {
		g.closedLoop(ctx, stop)
	}
}

// openLoop sends post n at start + n/rate. A poster sends its next post
// only once the observer has its last one, so a slot never has to
// split a post; a post due while every poster is busy waits, and its
// latency, timed from when it was due, shows the wait. Posts still
// waiting for a poster when the window closes are never sent.
func (g *generator) openLoop(ctx context.Context, start, stop time.Time) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	closed := time.NewTimer(time.Until(stop))
	defer closed.Stop()
	interval := float64(time.Second) / g.w.rate
	dueAt := func(n int) time.Time { return start.Add(time.Duration(float64(n) * interval)) }
	for n := 0; ; n++ {
		due := dueAt(n)
		if !due.Before(stop) {
			return
		}
		for wait := time.Until(due); wait > 0; wait = time.Until(due) {
			timer.Reset(wait)
			select {
			case id := <-g.notify:
				g.free(id)
			case <-timer.C:
			case <-ctx.Done():
				return
			}
		}
		sender := -1
		for sender < 0 {
			if sender = g.pick(); sender < 0 {
				select {
				case id := <-g.notify:
					g.free(id)
				case <-closed.C:
					for ; dueAt(n).Before(stop); n++ {
						if !dueAt(n).Before(g.windowStart) {
							g.unsent = append(g.unsent, dueAt(n))
						}
					}
					return
				case <-ctx.Done():
					return
				}
			}
		}
		g.lateMax = max(g.lateMax, time.Since(due))
		g.issue(ctx, sender, due)
	}
}

// pick returns the next poster in order that has nothing outstanding,
// or -1 when all are busy.
func (g *generator) pick() int {
	for i := range g.order {
		c := g.order[(g.cursor+i)%len(g.order)]
		if g.outstanding[c] == 0 {
			g.cursor = (g.cursor + i + 1) % len(g.order)
			return c
		}
	}
	return -1
}

func (g *generator) closedLoop(ctx context.Context, stop time.Time) {
	for _, c := range g.order {
		for k := 0; k < g.w.outstanding; k++ {
			g.issue(ctx, c, time.Now())
		}
	}
	timer := time.NewTimer(time.Until(stop))
	defer timer.Stop()
	for {
		select {
		case id := <-g.notify:
			if p := g.free(id); p != nil {
				g.issue(ctx, p.sender, time.Now())
			}
		case <-timer.C:
			return
		case <-ctx.Done():
			return
		}
	}
}

func (g *generator) free(id uint32) *post {
	p := g.reg.get(id)
	if p != nil {
		g.outstanding[p.sender]--
	}
	return p
}

// issue builds one post for sender and hands it to Session.Send.
func (g *generator) issue(ctx context.Context, sender int, due time.Time) {
	frame := g.buf[:g.w.postSize]
	g.payload.Read(frame[frameHeader:])
	p := &post{sender: sender, size: len(frame), due: due, warm: due.Before(g.windowStart)}
	g.reg.add(p)
	binary.BigEndian.PutUint16(frame, frameMagic)
	binary.BigEndian.PutUint32(frame[2:], p.id)
	binary.BigEndian.PutUint32(frame[6:], uint32(len(frame)-frameHeader))
	p.hash = maphash.Bytes(g.reg.seed, frame)
	g.outstanding[sender]++
	p.sendStart = time.Now()
	// Send copies the payload into the client's outbox, so the frame
	// buffer is free for the next post once it returns.
	p.sendErr = g.clients[sender].node.Session().Send(ctx, frame)
	p.sendEnd = time.Now()
}

// seedBytes derives a 32-byte stream key from the workload seed, one
// per purpose, so each stream is independent of how much the others
// consume.
func seedBytes(seed uint64, purpose string) [32]byte {
	var k [32]byte
	binary.BigEndian.PutUint64(k[:], seed)
	copy(k[8:], purpose)
	return k
}
