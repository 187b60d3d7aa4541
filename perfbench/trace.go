package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dissent"
)

// Span names. Every span the benchmark records sits at a boundary
// between the benchmark and one of the program's public layers.
const (
	spanRecv     = "core.recv"       // transport recv callback: engine Handle + dispatch
	spanLinkSend = "transport.send"  // Link.Send
	spanPost     = "post"            // due → observer delivery
	spanSDKSend  = "sdk.send"        // Session.Send
	spanQueue    = "post.queue"      // due → start of the round that carried the post
	spanRound    = "post.round"      // that round's start → certification (server 0)
	spanFanout   = "post.fanout"     // certification → observer delivery
	spanExpel    = "sdk.expel"       // Expel → victim's EventMemberExpelled
	spanRejoin   = "sdk.rejoin"      // Session.Rejoin call
	spanOpen     = "store.open"      // OpenStateStore call
	spanRestart  = "restore.restart" // restarted server's Run → first certified round
	spanMetrics  = "sdk.metrics"     // Session.Metrics poll
	spanTraces   = "sdk.traces"      // Session.RecentTraces poll
)

// span is one timed call. Start and End are nanoseconds since the
// tracer's origin; spans of one post share its Post id.
type span struct {
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Post   uint32         `json:"post,omitempty"`
	Node   dissent.NodeID `json:"-"`
	Role   string         `json:"role,omitempty"`
	Type   string         `json:"type,omitempty"`
	Round  uint64         `json:"round,omitempty"`
	Bytes  int            `json:"bytes,omitempty"`
}

// linkKey matches a sent frame to its receipt.
type linkKey struct {
	from, to dissent.NodeID
	typ      string
	round    uint64
}

// transit is one matched frame: when it arrived and how long it took.
type transit struct{ at, dur int64 }

// tracer keeps every span in memory until the run ends. Link.Send
// spans are parented to the recv span open on the same goroutine, which
// is how the engine's dispatch reaches the link.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64

	mu       sync.Mutex
	spans    []span
	active   map[uint64]uint64 // goroutine id → open recv span
	inflight map[linkKey][]int64
	transits []transit
	roles    map[dissent.NodeID]string
}

func newTracer() *tracer {
	return &tracer{
		origin:   time.Now(),
		active:   make(map[uint64]uint64),
		inflight: make(map[linkKey][]int64),
		roles:    make(map[dissent.NodeID]string),
	}
}

// setGroup names the role of every member of grp.
func (t *tracer) setGroup(grp *dissent.Group) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range grp.Servers {
		t.roles[m.ID] = "server"
	}
	for _, m := range grp.Clients {
		t.roles[m.ID] = "client"
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// at converts a wall-clock reading to tracer time.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.origin)) }

func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records a span around fn.
func (t *tracer) timed(name string, fn func()) {
	start := t.now()
	fn()
	t.add(span{Name: name, Start: start, End: t.now()})
}

// snapshot returns the spans and transits recorded so far.
func (t *tracer) snapshot() ([]span, []transit) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]transit(nil), t.transits...)
}

// unmatched counts frames sent in [from, to) that never arrived.
func (t *tracer) unmatched(from, to int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, q := range t.inflight {
		for _, sent := range q {
			if sent >= from && sent < to {
				n++
			}
		}
	}
	return n
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string, extra []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	all := append(t.spans, extra...)
	for i := range all {
		out := struct {
			*span
			Node string `json:"node,omitempty"`
		}{span: &all[i]}
		if all[i].Node != (dissent.NodeID{}) {
			out.Node = all[i].Node.String()
		}
		if err := enc.Encode(out); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recv wraps one inbound delivery to node self.
func (t *tracer) recv(self dissent.NodeID, m *dissent.Message, recv func(*dissent.Message)) {
	g := goid()
	id := t.ids.Add(1)
	typ := m.Type.String()
	start := t.now()
	k := linkKey{m.From, self, typ, m.Round}
	t.mu.Lock()
	t.active[g] = id
	if q := t.inflight[k]; len(q) > 0 {
		t.transits = append(t.transits, transit{at: start, dur: start - q[0]})
		if len(q) == 1 {
			delete(t.inflight, k)
		} else {
			t.inflight[k] = q[1:]
		}
	}
	t.mu.Unlock()

	recv(m)

	end := t.now()
	t.mu.Lock()
	delete(t.active, g)
	t.spans = append(t.spans, span{
		ID: id, Name: spanRecv, Start: start, End: end,
		Node: self, Role: t.roles[self], Type: typ, Round: m.Round, Bytes: m.WireSize(),
	})
	t.mu.Unlock()
}

// send wraps one outbound Link.Send from node self. The frame is
// registered as in flight before the inner send, because an in-process
// receiver may handle it before the inner Send returns.
func (t *tracer) send(self, to dissent.NodeID, m *dissent.Message, send func() error) error {
	g := goid()
	typ := m.Type.String()
	k := linkKey{self, to, typ, m.Round}
	start := t.now()
	t.mu.Lock()
	parent := t.active[g]
	t.inflight[k] = append(t.inflight[k], start)
	t.mu.Unlock()

	err := send()

	end := t.now()
	t.add(span{
		Parent: parent, Name: spanLinkSend, Start: start, End: end,
		Node: self, Role: t.roles[self], Type: typ, Round: m.Round, Bytes: m.WireSize(),
	})
	return err
}

// goid returns the calling goroutine's id, parsed from the header line
// of its stack trace ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// tracedTransport hands every member a Link whose Send and recv
// callback are timed. A custom Transport is dialled through the SDK's
// untagged single-session path; over TCP that is the legacy untagged
// frame format, and the difference is part of the tracing overhead the
// traced run reports.
type tracedTransport struct {
	inner dissent.Transport
	t     *tracer
}

func (tt tracedTransport) Dial(self dissent.NodeID, recv func(*dissent.Message), onError func(error)) (dissent.Link, error) {
	link, err := tt.inner.Dial(self, func(m *dissent.Message) { tt.t.recv(self, m, recv) }, onError)
	if err != nil {
		return nil, fmt.Errorf("traced dial: %w", err)
	}
	return tracedLink{inner: link, t: tt.t, self: self}, nil
}

// tracedLink omits the TCP link's optional AddPeer, so a traced TCP
// group cannot admit new joiners mid-session; no workload does.
type tracedLink struct {
	inner dissent.Link
	t     *tracer
	self  dissent.NodeID
}

func (l tracedLink) Send(to dissent.NodeID, m *dissent.Message) error {
	return l.t.send(l.self, to, m, func() error { return l.inner.Send(to, m) })
}

func (l tracedLink) Addr() string { return l.inner.Addr() }
func (l tracedLink) Close() error { return l.inner.Close() }
