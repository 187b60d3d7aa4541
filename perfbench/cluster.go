package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net"
	"path/filepath"
	"sync"
	"time"

	"dissent"
	"dissent/internal/crypto"
)

// keyset is every member's keys, drawn once per run from the seed.
// Key generation is not part of set-up time.
type keyset struct{ servers, clients []dissent.Keys }

// genKeys derives all member keys from the workload seed through a
// seeded reader into crypto.GenerateKeyPair.
func genKeys(w *workload, seed uint64) (keyset, error) {
	r := rand.NewChaCha8(seedBytes(seed, "keys"))
	policy := w.policy()
	mg, err := crypto.GroupByName(policy.MessageGroup)
	if err != nil {
		return keyset{}, err
	}
	var ks keyset
	for i := 0; i < w.servers; i++ {
		id, err := crypto.GenerateKeyPair(crypto.P256(), r)
		if err != nil {
			return keyset{}, err
		}
		msg, err := crypto.GenerateKeyPair(mg, r)
		if err != nil {
			return keyset{}, err
		}
		ks.servers = append(ks.servers, dissent.Keys{Identity: id, MsgShuffle: msg})
	}
	for i := 0; i < w.clients; i++ {
		id, err := crypto.GenerateKeyPair(crypto.P256(), r)
		if err != nil {
			return keyset{}, err
		}
		ks.clients = append(ks.clients, dissent.Keys{Identity: id})
	}
	return ks, nil
}

// member is one running group member.
type member struct {
	role dissent.Role
	keys dissent.Keys
	idx  int // definition index within its role
	node *dissent.Node
	addr string // TCP listen address
	kv   *dissent.StateStore
	path string // state store file

	stop    context.CancelFunc
	done    chan struct{} // closed when Run returns
	ready   chan struct{} // clients: closed at EventScheduleReady
	readyAt time.Time     // set before ready closes
}

// cluster is one group of servers and clients running in this process.
type cluster struct {
	w      *workload
	grp    *dissent.Group
	net    *dissent.SimNet
	roster dissent.Roster
	tr     *tracer // nil when untraced
	dir    string
	ctx    context.Context

	servers []*member // by definition index
	clients []*member

	startedAt time.Time // first Run of the set-up
	storeMu   sync.Mutex
	opens     []time.Duration // OpenStateStore call times
}

// quiet discards the SDK's structured logs, soft errors included: the
// benchmark's own checks decide whether a run was correct.
var quiet = slog.New(slog.DiscardHandler)

// newCluster builds the group definition and every member node, without
// running any of them.
func newCluster(ctx context.Context, w *workload, ks keyset, name, dir string, tr *tracer) (*cluster, error) {
	grp, err := dissent.NewGroup(name, ks.servers, ks.clients, w.policy())
	if err != nil {
		return nil, err
	}
	c := &cluster{w: w, grp: grp, tr: tr, dir: dir, ctx: ctx,
		servers: make([]*member, w.servers), clients: make([]*member, w.clients)}
	if tr != nil {
		tr.setGroup(grp)
	}
	if w.tcp {
		c.roster = dissent.Roster{}
	} else {
		c.net = dissent.NewSimNet()
	}
	var addrs []string
	if w.tcp {
		if addrs, err = freeAddrs(w.servers + w.clients); err != nil {
			return nil, err
		}
	}
	all := make([]*member, 0, w.servers+w.clients)
	for i, k := range ks.servers {
		all = append(all, &member{role: dissent.RoleServer, keys: k, path: filepath.Join(dir, fmt.Sprintf("server-%d.kv", i))})
	}
	for _, k := range ks.clients {
		all = append(all, &member{role: dissent.RoleClient, keys: k, ready: make(chan struct{})})
	}
	for i, m := range all {
		if w.tcp {
			m.addr = addrs[i]
		}
		if err := c.build(m); err != nil {
			c.close() // the build error is the one to report
			return nil, err
		}
		m.idx = m.node.Index()
		if m.role == dissent.RoleServer {
			c.servers[m.idx] = m
		} else {
			c.clients[m.idx] = m
		}
		if w.tcp {
			c.roster[m.node.ID()] = m.addr
		}
	}
	return c, nil
}

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
	}
	addrs := make([]string, n)
	for i, l := range ls {
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// build constructs m's node (opening its state store first when the
// workload keeps one), ready to Run.
func (c *cluster) build(m *member) error {
	opts := []dissent.Option{
		dissent.WithLogger(quiet),
		// Deep enough that a receiver never loses a round to the
		// drop-oldest policy, even while a restart holds it up.
		dissent.WithMessageBuffer(1 << 14),
	}
	switch {
	case c.tr != nil && c.w.tcp:
		opts = append(opts, dissent.WithTransport(tracedTransport{dissent.TCP(m.addr, c.roster), c.tr}))
	case c.tr != nil:
		opts = append(opts, dissent.WithTransport(tracedTransport{c.net, c.tr}))
	case c.w.tcp:
		opts = append(opts, dissent.WithListenAddr(m.addr), dissent.WithRoster(c.roster))
	default:
		opts = append(opts, dissent.WithTransport(c.net))
	}
	var err error
	if m.role == dissent.RoleServer {
		if c.w.stores {
			if err := c.openStore(m); err != nil {
				return err
			}
			opts = append(opts, dissent.WithStateStore(m.kv))
		}
		m.node, err = dissent.NewServer(c.grp, m.keys, opts...)
	} else {
		m.node, err = dissent.NewClient(c.grp, m.keys, opts...)
	}
	return err
}

// openStore opens m's state store file, timing the call.
func (c *cluster) openStore(m *member) error {
	start := time.Now()
	kv, err := dissent.OpenStateStore(m.path)
	d := time.Since(start)
	if err != nil {
		return fmt.Errorf("open state store: %w", err)
	}
	if c.tr != nil {
		c.tr.add(span{Name: spanOpen, Start: c.tr.at(start), End: c.tr.at(start.Add(d))})
	}
	c.storeMu.Lock()
	c.opens = append(c.opens, d)
	c.storeMu.Unlock()
	m.kv = kv
	return nil
}

// run starts m's node under its own cancellable context.
func (c *cluster) run(m *member) {
	ctx, stop := context.WithCancel(c.ctx)
	m.stop, m.done = stop, make(chan struct{})
	if m.ready != nil {
		ready := m.node.Subscribe(dissent.EventScheduleReady)
		go func() {
			if _, ok := <-ready; ok {
				m.readyAt = time.Now()
				close(m.ready)
			}
		}()
	}
	go func() {
		defer close(m.done)
		m.node.Run(ctx)
	}()
}

// start runs every member and waits until every client has its
// schedule, returning the set-up time: first Run → last client ready.
func (c *cluster) start(timeout time.Duration) (time.Duration, error) {
	t0 := time.Now()
	c.startedAt = t0
	for _, m := range c.servers {
		c.run(m)
	}
	for _, m := range c.clients {
		c.run(m)
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for _, m := range c.clients {
		select {
		case <-m.ready:
		case <-deadline.C:
			return 0, fmt.Errorf("set-up did not finish within %v", timeout)
		}
	}
	setup := time.Since(t0)
	for _, m := range c.clients {
		if !m.node.ScheduleEstablished() {
			return 0, errors.New("client reported ready without an established schedule")
		}
	}
	return setup, nil
}

// halt stops one member and waits for its Run to return, then closes
// its state store.
func (c *cluster) halt(m *member) error {
	if m.stop != nil {
		m.stop()
		<-m.done
		m.stop = nil
	}
	if m.kv != nil {
		err := m.kv.Close()
		m.kv = nil
		return err
	}
	return nil
}

// close stops every member and the fabric.
func (c *cluster) close() error {
	var errs []error
	for _, m := range append(append([]*member(nil), c.clients...), c.servers...) {
		if m != nil {
			errs = append(errs, c.halt(m))
		}
	}
	if c.net != nil {
		c.net.Close()
	}
	return errors.Join(errs...)
}

// restart stops server idx, keeps it down for the given time, and runs
// a new node over the same state store file. It reports the restarted
// node's Run → EventStateRestored and Run → first certified round.
func (c *cluster) restart(idx int, down time.Duration, attach func(*member)) (restored, recovered time.Duration, err error) {
	m := c.servers[idx]
	if err := c.halt(m); err != nil {
		return 0, 0, fmt.Errorf("close state store: %w", err)
	}
	time.Sleep(down)
	if err := c.build(m); err != nil {
		return 0, 0, err
	}
	events := m.node.Subscribe(dissent.EventStateRestored, dissent.EventRoundComplete)
	attach(m)
	start := time.Now()
	c.run(m)
	deadline := time.NewTimer(stepTimeout)
	defer deadline.Stop()
	for restored == 0 || recovered == 0 {
		select {
		case e, ok := <-events:
			if !ok {
				return 0, 0, errors.New("restarted server shut down during recovery")
			}
			switch {
			case e.Kind == dissent.EventStateRestored && restored == 0:
				restored = time.Since(start)
			case e.Kind == dissent.EventRoundComplete && recovered == 0:
				recovered = time.Since(start)
			}
		case <-deadline.C:
			return 0, 0, fmt.Errorf("restarted server %d did not restore and certify a round within %v", idx, stepTimeout)
		}
	}
	if c.tr != nil {
		c.tr.add(span{Name: spanRestart, Start: c.tr.at(start), End: c.tr.at(start.Add(recovered)), Node: m.node.ID()})
	}
	if got := m.node.Metrics().StateRestores; got == 0 {
		return 0, 0, fmt.Errorf("restarted server %d resumed without raising StateRestores", idx)
	}
	return restored, recovered, nil
}
