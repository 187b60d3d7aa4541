package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"dissent"
)

const (
	setupTimeout = 60 * time.Second
	warmup       = time.Second
	drainTimeout = 10 * time.Second
	pollEvery    = 250 * time.Millisecond // heap samples and traced polls
	// stepTimeout bounds one scripted expel, rejoin or restart. Each
	// takes well under a second when the group is healthy.
	stepTimeout = 30 * time.Second
)

// run is one measured window over one running cluster.
type run struct {
	w    *workload
	c    *cluster
	seed uint64
	reg  *registry

	clientSinks []*clientSink
	serverSinks []*serverSink
	sinks       sync.WaitGroup

	observer int
	posters  []int
	victims  []int
	gen      *generator

	// Window snapshots.
	ws, we, drainEnd time.Time
	snapAt           [2]time.Time // when each snapshot was read
	rounds           [2]uint64
	cpu              [2]time.Duration
	rt               [2]runtimeStats
	srv0             [2]dissent.SessionMetrics
	storeBytes       [2]int64
	heapPeak         uint64
	bins             [][2]float64

	mu        sync.Mutex
	expels    []time.Duration
	rejoins   []time.Duration
	restoreds []time.Duration
	recovers  []time.Duration

	traces   map[uint64]dissent.RoundTrace // server 0, by round (traced runs)
	resynced map[int][]uint64              // client → rounds of its replica re-syncs
	problems []string                      // correctness failures
}

// newRun assigns roles from the seed and attaches a delivery sink to
// every member of c. Call before c.start.
func newRun(w *workload, c *cluster, seed uint64) *run {
	r := &run{w: w, c: c, seed: seed, reg: newRegistry(),
		clientSinks: make([]*clientSink, w.clients), serverSinks: make([]*serverSink, w.servers)}
	order := rand.New(rand.NewChaCha8(seedBytes(seed, "roles"))).Perm(w.clients)
	r.observer = -1
	for _, i := range order {
		if c.grp.UpstreamServer(i) == 0 {
			r.observer = i
			break
		}
	}
	for _, i := range order {
		switch {
		case i == r.observer:
		case len(r.victims) < w.victims:
			r.victims = append(r.victims, i)
		case w.rate > 0 || len(r.posters) < w.senders:
			r.posters = append(r.posters, i)
		}
	}
	r.gen = newGenerator(w, r.reg, c.clients, r.posters, seed)
	for i, m := range c.clients {
		var obs func(*post, uint64)
		if i == r.observer {
			obs = r.observed
		}
		r.clientSinks[i] = newClientSink(r.reg, obs)
		r.attach(m)
		r.watchResyncs(i, m)
	}
	for i, m := range c.servers {
		r.serverSinks[i] = newServerSink(r.reg.seed)
		r.attach(m)
	}
	return r
}

// attach starts draining a (possibly restarted) member's deliveries.
func (r *run) attach(m *member) {
	ch := m.node.Messages()
	r.sinks.Add(1)
	go func() {
		defer r.sinks.Done()
		if m.role == dissent.RoleServer {
			r.serverSinks[m.idx].drain(ch)
		} else {
			r.clientSinks[m.idx].drain(ch)
		}
	}()
}

// watchResyncs records each replica re-sync a client reports. A
// re-sync restarts the client's output stream at the snapshot round, so
// it is the first thing to look at when a post misses a live client.
func (r *run) watchResyncs(i int, m *member) {
	ch := m.node.Subscribe(dissent.EventReplicaResynced)
	r.sinks.Add(1)
	go func() {
		defer r.sinks.Done()
		for e := range ch {
			r.mu.Lock()
			if r.resynced == nil {
				r.resynced = make(map[int][]uint64)
			}
			r.resynced[i] = append(r.resynced[i], e.Round)
			r.mu.Unlock()
		}
	}()
}

// observed marks a post delivered at the observer.
func (r *run) observed(p *post, round uint64) {
	r.reg.mu.Lock()
	p.delivered, p.round = time.Now(), round
	r.reg.mu.Unlock()
	r.gen.completed(p)
}

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// measure drives the workload for one window and drains it.
func (r *run) measure(ctx context.Context, window time.Duration, traced bool) {
	w, c := r.w, r.c
	s0 := c.servers[0].node
	expelled := s0.Subscribe(dissent.EventMemberExpelled)
	r.sinks.Add(1) // the channel closes with server 0, like its deliveries
	go func() {
		defer r.sinks.Done()
		r.watchExpulsions(expelled)
	}()
	var bg sync.WaitGroup

	start := time.Now()
	r.ws = start.Add(warmup)
	stop := r.ws.Add(window)
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		r.gen.run(ctx, start, r.ws, stop)
	}()

	pollCtx, stopPolls := context.WithCancel(ctx)
	bg.Add(1)
	go func() {
		defer bg.Done()
		r.poll(pollCtx, traced)
	}()

	sleepUntil(r.ws)
	r.snapshot(0)
	var churn sync.WaitGroup
	if w.victims > 0 {
		churn.Add(1)
		go func() {
			defer churn.Done()
			r.churn(ctx, stop)
		}()
	}
	if w.restartEvery > 0 {
		churn.Add(1)
		go func() {
			defer churn.Done()
			r.restarts(stop)
		}()
	}
	sleepUntil(stop)
	r.snapshot(1)
	r.we = stop
	stopPolls()
	<-genDone
	churn.Wait()
	r.drain()
	if traced {
		r.pollTraces() // the last rounds of the window
	}
	bg.Wait()
}

// watchExpulsions flags any expulsion of a member that is not a
// scripted victim.
func (r *run) watchExpulsions(ch <-chan dissent.Event) {
	victims := map[dissent.NodeID]bool{}
	for _, v := range r.victims {
		victims[r.c.clients[v].node.ID()] = true
	}
	for e := range ch {
		if !victims[e.Culprit] {
			r.fail("member %s expelled without being a scripted victim (%s)", e.Culprit, e.Detail)
		}
	}
}

// snapshot reads the window's counters at its start (0) or end (1).
func (r *run) snapshot(i int) {
	s0 := r.c.servers[0]
	r.snapAt[i] = time.Now()
	r.srv0[i] = s0.node.Metrics()
	r.rounds[i] = r.srv0[i].RoundsCompleted
	r.cpu[i] = processCPU()
	r.rt[i] = readRuntime()
	if s0.kv != nil {
		if fi, err := os.Stat(s0.path); err == nil {
			r.storeBytes[i] = fi.Size()
		}
	}
}

// poll samples the heap through the window and, when traced, polls
// server 0's Metrics and RecentTraces.
func (r *run) poll(ctx context.Context, traced bool) {
	t := time.NewTicker(pollEvery / 5)
	defer t.Stop()
	for n := 0; ; n++ {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			if now.After(r.ws) {
				r.heapPeak = max(r.heapPeak, readRuntime().heap)
				if n%20 == 0 {
					r.bins = append(r.bins, [2]float64{now.Sub(r.ws).Seconds(), float64(r.c.servers[0].node.Metrics().RoundsCompleted)})
				}
			}
			if traced && n%5 == 0 {
				r.pollTraces()
			}
		}
	}
}

// pollTraces folds server 0's recent round spans into r.traces. The
// ring holds 128 rounds, several times what one poll interval sees.
func (r *run) pollTraces() {
	node := r.c.servers[0].node
	var ts []dissent.RoundTrace
	r.c.tr.timed(spanMetrics, func() { node.Metrics() })
	r.c.tr.timed(spanTraces, func() { ts = node.Session().RecentTraces(0) })
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traces == nil {
		r.traces = make(map[uint64]dissent.RoundTrace)
	}
	for _, t := range ts {
		r.traces[t.Round] = t
	}
}

// churn expels and rejoins the victims back to back until stop.
func (r *run) churn(ctx context.Context, stop time.Time) {
	s0 := r.c.servers[0].node
	subs := make([]<-chan dissent.Event, len(r.victims))
	for i, v := range r.victims {
		subs[i] = r.c.clients[v].node.Subscribe(dissent.EventMemberExpelled)
	}
	for time.Now().Before(stop) {
		for i, v := range r.victims {
			node := r.c.clients[v].node
			t0 := time.Now()
			if err := s0.Expel(node.ID()); err != nil {
				r.fail("expel: %v", err)
				return
			}
			if !awaitCulprit(subs[i], node.ID(), stepTimeout) {
				r.fail("victim never observed its expulsion within %v", stepTimeout)
				return
			}
			t1 := time.Now()
			rctx, cancel := context.WithTimeout(ctx, stepTimeout)
			err := node.Rejoin(rctx)
			cancel()
			t2 := time.Now()
			if err != nil {
				r.fail("rejoin: %v", err)
				return
			}
			if tr := r.c.tr; tr != nil {
				tr.add(span{Name: spanExpel, Start: tr.at(t0), End: tr.at(t1), Node: node.ID()})
				tr.add(span{Name: spanRejoin, Start: tr.at(t1), End: tr.at(t2), Node: node.ID()})
			}
			r.mu.Lock()
			r.expels = append(r.expels, t1.Sub(t0))
			r.rejoins = append(r.rejoins, t2.Sub(t1))
			r.mu.Unlock()
		}
	}
}

func awaitCulprit(ch <-chan dissent.Event, id dissent.NodeID, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return false
			}
			if e.Culprit == id {
				return true
			}
		case <-deadline.C:
			return false
		}
	}
}

// restarts stops server 2 every restartEvery (with seeded jitter of up
// to a twentieth of the period either way) and restarts it from its
// store until stop.
func (r *run) restarts(stop time.Time) {
	rng := rand.New(rand.NewChaCha8(seedBytes(r.seed, "restarts")))
	period := r.w.restartEvery
	for k := 0; ; k++ {
		jitter := time.Duration((rng.Float64() - 0.5) * float64(period) / 10)
		at := r.ws.Add(period/2 + time.Duration(k)*period + jitter)
		if !at.Add(r.w.downFor).Before(stop) {
			return
		}
		sleepUntil(at)
		restored, recovered, err := r.c.restart(2, r.w.downFor, r.attach)
		if err != nil {
			r.fail("restart %d: %v", k+1, err)
			return
		}
		r.mu.Lock()
		r.restoreds = append(r.restoreds, restored)
		r.recovers = append(r.recovers, recovered)
		r.mu.Unlock()
	}
}

// drain waits for posts still in flight when the window closed, then
// checks that every post reached every live client or none, and that
// the servers agree on every round's output.
func (r *run) drain() {
	posts := r.reg.all()
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) && !allDelivered(r.reg, posts) {
		time.Sleep(20 * time.Millisecond)
	}
	r.drainEnd = time.Now()

	live := r.liveClients()
	consistent := func() []string {
		var bad []string
		for _, p := range posts {
			var missing []string
			for _, i := range live {
				if !r.clientSinks[i].has(p.id) {
					missing = append(missing, fmt.Sprintf("%d@s%d", i, r.c.grp.UpstreamServer(i)))
				}
			}
			if n := len(live) - len(missing); n > 0 && n < len(live) {
				r.reg.mu.RLock()
				round := p.round
				r.reg.mu.RUnlock()
				bad = append(bad, fmt.Sprintf("post %d (round %d at the observer) reached %d of %d live clients; missing at client@upstream %v",
					p.id, round, n, len(live), missing))
			}
		}
		return bad
	}
	bad := consistent()
	for grace := time.Now().Add(5 * time.Second); len(bad) > 0 && time.Now().Before(grace); bad = consistent() {
		time.Sleep(50 * time.Millisecond)
	}
	for i, b := range bad {
		if i == 5 {
			r.fail("... and %d more posts missing at live clients", len(bad)-i)
			break
		}
		r.fail("%s", b)
	}
	if len(bad) > 0 {
		r.mu.Lock()
		resynced := fmt.Sprint(r.resynced)
		r.mu.Unlock()
		r.fail("replica re-syncs by client (rounds): %s", resynced)
	}
	for i, s := range r.clientSinks {
		for _, b := range s.failures() {
			r.fail("client %d: %s", i, b)
		}
	}
	for _, p := range posts {
		if p.sendErr != nil {
			r.fail("post %d: Send failed: %v", p.id, p.sendErr)
		}
	}
	r.compareServers()
}

func allDelivered(reg *registry, posts []*post) bool {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	for _, p := range posts {
		if p.delivered.IsZero() && p.sendErr == nil {
			return false
		}
	}
	return true
}

// liveClients are the indices of every client that is never expelled.
func (r *run) liveClients() []int {
	victim := map[int]bool{}
	for _, v := range r.victims {
		victim[v] = true
	}
	var out []int
	for i := range r.clientSinks {
		if !victim[i] {
			out = append(out, i)
		}
	}
	return out
}

// compareServers checks that every server decoded the same output for
// every round two of them both finished.
func (r *run) compareServers() {
	ref := r.serverSinks[0].rounds()
	for i, s := range r.serverSinks[1:] {
		common, diff := 0, []uint64{}
		for round, d := range s.rounds() {
			if want, ok := ref[round]; ok {
				common++
				if d != want {
					diff = append(diff, round)
				}
			}
		}
		sort.Slice(diff, func(a, b int) bool { return diff[a] < diff[b] })
		switch {
		case len(diff) > 0:
			r.fail("server %d certified different outputs than server 0 in %d rounds (first: round %d)", i+1, len(diff), diff[0])
		case common < 10:
			r.fail("server %d shares only %d output rounds with server 0: too few to compare", i+1, common)
		}
	}
}

// windowPosts returns the posts due inside the measured window.
func (r *run) windowPosts() []*post {
	var out []*post
	for _, p := range r.reg.all() {
		if !p.warm {
			out = append(out, p)
		}
	}
	return out
}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeStats is the subset of runtime/metrics the benchmark reports.
type runtimeStats struct {
	heap, allocs    uint64
	gcCPU, totalCPU float64
}

var runtimeSamples = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeStats{
		heap:     s[0].Value.Uint64(),
		allocs:   s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}
