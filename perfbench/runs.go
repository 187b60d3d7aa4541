package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	w      *workload
	seed   uint64
	window time.Duration
	out    string
}

// setUp builds and starts the cluster n times over the same keys, each
// time as a fresh group, and keeps the last one running. It returns the
// set-up time of each.
func setUp(ctx context.Context, cfg config, ks keyset, n int, tag string, tr *tracer) (*cluster, *run, []time.Duration, error) {
	var setups []time.Duration
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp(cfg.out, "stores-")
		if err != nil {
			return nil, nil, nil, err
		}
		name := fmt.Sprintf("%s-%d-%s%d", cfg.w.name, cfg.seed, tag, i)
		c, err := newCluster(ctx, cfg.w, ks, name, dir, tr)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, nil, err
		}
		var r *run
		last := i == n-1
		if last {
			r = newRun(cfg.w, c, cfg.seed)
		}
		d, err := c.start(setupTimeout)
		if err != nil || !last {
			c.close() // a discarded set-up: nothing of it is measured
			os.RemoveAll(dir)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, d)
		if last {
			return c, r, setups, nil
		}
	}
	return nil, nil, nil, fmt.Errorf("no set-up requested")
}

// finish tears the cluster down, waits for every sink to drain, and
// removes the run's store files. A state store that fails to close
// (its final flush) fails the run.
func (r *run) finish() {
	if err := r.c.close(); err != nil {
		r.fail("closing the cluster: %v", err)
	}
	r.sinks.Wait()
	os.RemoveAll(r.c.dir)
}

// runPlain measures the end-to-end metrics with tracing off.
func runPlain(ctx context.Context, cfg config) (*result, error) {
	ks, err := genKeys(cfg.w, cfg.seed)
	if err != nil {
		return nil, err
	}
	_, r, setups, err := setUp(ctx, cfg, ks, cfg.w.setups, "", nil)
	if err != nil {
		return nil, err
	}
	r.measure(ctx, cfg.window, false)
	r.finish()
	return r.endToEnd(setups), nil
}

// runTraced measures the per-layer metrics: first an untraced reference
// window of half the length (for the tracing overhead), then a traced
// set-up and window whose spans every per-layer metric is reduced from.
func runTraced(ctx context.Context, cfg config) (*result, error) {
	ks, err := genKeys(cfg.w, cfg.seed)
	if err != nil {
		return nil, err
	}
	_, ref, _, err := setUp(ctx, cfg, ks, 1, "ref", nil)
	if err != nil {
		return nil, err
	}
	ref.measure(ctx, cfg.window/2, false)
	ref.finish()
	refRes := ref.endToEnd(nil)

	tr := newTracer()
	c, r, setups, err := setUp(ctx, cfg, ks, 1, "traced", tr)
	if err != nil {
		return nil, err
	}
	setupSpan := interval{tr.at(c.startedAt), tr.at(c.startedAt.Add(setups[0]))}
	r.measure(ctx, cfg.window, true)
	records := storeRecords(c)
	r.finish()
	res := r.endToEnd(setups)
	r.perLayer(res, setupSpan, refRes.metrics["rounds_per_s"].Value, records)
	res.problems = append(res.problems, refRes.problems...)
	res.tracer = tr
	return res, nil
}

// storeRecords reads server 0's live record count before teardown.
func storeRecords(c *cluster) int {
	if kv := c.servers[0].kv; kv != nil {
		return kv.Len()
	}
	return -1
}

// endToEnd reduces the window to the metrics a user sees.
func (r *run) endToEnd(setups []time.Duration) *result {
	res := &result{}
	r.mu.Lock()
	res.problems = append(res.problems, r.problems...)
	r.mu.Unlock()

	posts := r.windowPosts()
	live := r.liveClients()
	var lat []float64
	var delivered, bytes int
	for _, p := range posts {
		d, ok := postLatency(p.due, p.delivered, r.drainEnd)
		lat = append(lat, ms(d))
		all := ok
		for _, i := range live {
			all = all && r.clientSinks[i].has(p.id)
		}
		if all {
			delivered++
		}
		if ok && !p.delivered.Before(r.ws) && p.delivered.Before(r.we) {
			bytes += p.size
		}
	}
	// A post the generator could not send fails like one never delivered.
	for _, due := range r.gen.unsent {
		d, _ := postLatency(due, time.Time{}, r.drainEnd)
		lat = append(lat, ms(d))
	}
	attempted := len(posts) + len(r.gen.unsent)
	res.attempted, res.failed = attempted, attempted-delivered
	if attempted == 0 {
		res.problems = append(res.problems, "no posts were due in the measured window")
	}
	t := summarize(lat, 0.99)
	note := ""
	if t.TailQ != 0.99 {
		note = fmt.Sprintf("p%.2f: too few samples for p99", 100*t.TailQ)
	}
	res.set("deliver_p50_ms", t.P50, "ms", t.N, "")
	res.set("deliver_p99_ms", t.Tail, "ms", t.N, note)
	res.set("delivered_frac", float64(delivered)/float64(max(attempted, 1)), "ratio", attempted, "")

	secs := r.snapAt[1].Sub(r.snapAt[0]).Seconds()
	rounds := float64(r.rounds[1] - r.rounds[0])
	if rounds == 0 {
		res.problems = append(res.problems, "no certified rounds in the measured window")
	}
	res.set("rounds_per_s", rounds/secs, "rounds/s", int(rounds), "")
	res.set("goodput_MBps", float64(bytes)/1e6/secs, "MB/s", delivered, "")
	res.set("cpu_ms_per_round", ms(r.cpu[1]-r.cpu[0])/rounds, "ms", int(rounds), "")
	res.set("heap_peak_MB", float64(r.heapPeak)/1e6, "MB", int(secs*float64(time.Second/(pollEvery/5))), "")
	if len(setups) > 0 {
		for _, d := range setups {
			res.setups = append(res.setups, d.Seconds())
		}
		res.set("setup_s", median(res.setups), "s", len(res.setups), "median of set-ups")
	}
	res.set("gen.late_max_ms", ms(r.gen.lateMax), "ms", attempted, "")
	for i := 1; i < len(r.bins); i++ {
		a, b := r.bins[i-1], r.bins[i]
		res.roundsPerSecond = append(res.roundsPerSecond, (b[1]-a[1])/(b[0]-a[0]))
	}
	return res
}

// perLayer reduces the traced window to the per-layer metrics.
func (r *run) perLayer(res *result, setup interval, refRPS float64, records int) {
	tr := r.c.tr
	spans, transits := tr.snapshot()
	ws, we := tr.at(r.ws), tr.at(r.we)
	rounds := float64(r.rounds[1] - r.rounds[0])
	perRound := func(v float64) float64 { return v / rounds }
	in := func(t int64) bool { return t >= ws && t < we }

	// Engine: recv-callback self time (span minus its Link.Send
	// children), by receiving role and message type.
	children := map[uint64][]interval{}
	for _, s := range spans {
		if s.Name == spanLinkSend && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	busy := map[string]float64{}
	var handle []float64
	var setupBusy float64
	var sendDur, rosterUpdates []float64
	var msgs, bytes float64
	typeBytes := map[string]float64{}
	for _, s := range spans {
		switch s.Name {
		case spanRecv:
			self := float64(selfTime(interval{s.Start, s.End}, children[s.ID]))
			if in(s.Start) {
				busy[fmt.Sprintf("core.%s.%s.busy_ms_per_round", s.Role, s.Type)] += self / 1e6
				handle = append(handle, self/1e3)
			}
			if s.Start >= setup.start && s.Start < setup.end && setupTypes[s.Type] {
				setupBusy += self / 1e6
			}
		case spanLinkSend:
			if !in(s.Start) {
				continue
			}
			msgs++
			bytes += float64(s.Bytes)
			typeBytes[fmt.Sprintf("transport.%s.bytes_per_round", s.Type)] += float64(s.Bytes)
			sendDur = append(sendDur, float64(s.End-s.Start)/1e3)
			if s.Type == "roster-update" {
				rosterUpdates = append(rosterUpdates, float64(s.Bytes))
			}
		}
	}
	for name, v := range busy {
		res.set(name, perRound(v), "ms", int(rounds), "")
	}
	for name, v := range typeBytes {
		res.set(name, perRound(v), "bytes", int(rounds), "")
	}
	res.set("core.handle_us_p99", summarize(handle, 0.99).Tail, "us", len(handle), "recv self time")
	res.set("transport.msgs_per_round", perRound(msgs), "count", int(rounds), "")
	res.set("transport.bytes_per_round", perRound(bytes), "bytes", int(rounds), "")
	res.set("transport.send_us_p99", summarize(sendDur, 0.99).Tail, "us", len(sendDur), "")
	var transit []float64
	for _, t := range transits {
		if in(t.at) {
			transit = append(transit, float64(t.dur)/1e6)
		}
	}
	tt := summarize(transit, 0.99)
	res.set("transport.transit_ms_p50", tt.P50, "ms", tt.N, "")
	res.set("transport.transit_ms_p99", tt.Tail, "ms", tt.N, "")
	res.set("transport.frames_dropped", float64(tr.unmatched(ws, we-int64(2*time.Second))), "count", int(msgs), "sent in the window, never received")

	// Round phases, from server 0's round spans.
	r.mu.Lock()
	traces := r.traces
	r.mu.Unlock()
	phases := map[string][]float64{}
	var stragglers, nTraces float64
	for _, t := range traces {
		if !in(tr.at(t.Start)) {
			continue
		}
		nTraces++
		stragglers += float64(t.Stragglers)
		phases["window"] = append(phases["window"], ms(t.Window))
		phases["pad"] = append(phases["pad"], ms(t.Pad))
		phases["combine"] = append(phases["combine"], ms(t.Combine))
		phases["certify"] = append(phases["certify"], ms(t.Certify))
		phases["total"] = append(phases["total"], ms(t.Total))
	}
	for _, ph := range []string{"window", "pad", "combine", "certify", "total"} {
		t := summarize(phases[ph], 0.99)
		res.set("core.round."+ph+"_ms_p50", t.P50, "ms", t.N, "")
		res.set("core.round."+ph+"_ms_p99", t.Tail, "ms", t.N, "")
	}
	res.set("core.round.stragglers_per_round", stragglers/nTraces, "count", int(nTraces), "")

	// Per-post decomposition: queue + round + fan-out = deliver.
	var queue, round, fanout, all []float64
	for _, p := range r.windowPosts() {
		if p.delivered.IsZero() {
			continue
		}
		all = append(all, ms(p.delivered.Sub(p.due)))
		t, ok := traces[p.round]
		if !ok {
			continue
		}
		certified := t.Start.Add(t.Total)
		queue = append(queue, ms(t.Start.Sub(p.due)))
		round = append(round, ms(t.Total))
		fanout = append(fanout, ms(p.delivered.Sub(certified)))
		res.postSpans = append(res.postSpans, postSpans(tr, p, t.Start, certified)...)
	}
	res.set("sdk.queue_ms_p50", median(queue), "ms", len(queue), "Send due → carrying round's start")
	res.set("core.fanout_ms_p50", median(fanout), "ms", len(fanout), "certified → observer")
	if sum, want := mean(queue)+mean(round)+mean(fanout), mean(all); len(all) > 0 &&
		(len(queue) < len(all)/2 || math.Abs(sum-want) > want/10) {
		res.problems = append(res.problems, fmt.Sprintf(
			"latency decomposition: queue+round+fanout means sum to %.2fms over %d posts, deliver mean %.2fms over %d", sum, len(queue), want, len(all)))
	}
	var sendWait []float64
	for _, p := range r.windowPosts() {
		sendWait = append(sendWait, float64(p.sendEnd.Sub(p.sendStart))/1e3)
	}
	res.set("sdk.send_wait_us_p99", summarize(sendWait, 0.99).Tail, "us", len(sendWait), "")

	// Data plane, from server 0's counters.
	d0, d1 := r.srv0[0], r.srv0[1]
	res.set("dcnet.pad_ms_per_round", perRound(ms(d1.PadComputeTime-d0.PadComputeTime)), "ms", int(rounds), "server 0")
	res.set("dcnet.combine_ms_per_round", perRound(ms(d1.CombineTime-d0.CombineTime)), "ms", int(rounds), "server 0")
	hits := float64(d1.PadPrefetchHits - d0.PadPrefetchHits)
	misses := float64(d1.PadPrefetchMisses - d0.PadPrefetchMisses)
	res.set("dcnet.prefetch_hit_frac", hits/(hits+misses), "ratio", int(hits+misses), "")

	// Set-up: the schedule shuffle.
	var ready []float64
	for _, m := range r.c.clients {
		ready = append(ready, m.readyAt.Sub(r.c.startedAt).Seconds())
	}
	sort.Float64s(ready)
	res.set("shuffle.schedule_s_p50", median(ready), "s", len(ready), "first Run → client schedule ready")
	res.set("shuffle.schedule_s_max", ready[len(ready)-1], "s", len(ready), "")
	res.set("shuffle.setup_busy_ms", setupBusy, "ms", 1, "recv self time of set-up messages, all members")

	// Durable store (server 0) and the restore path (server 2).
	if records >= 0 {
		res.set("store.bytes_per_round", perRound(float64(r.storeBytes[1]-r.storeBytes[0])), "bytes", int(rounds), "server 0 file growth")
		res.set("store.records_end", float64(records), "count", 1, "server 0 live records")
		r.c.storeMu.Lock()
		res.set("store.open_ms_p50", medianDur(r.c.opens), "ms", len(r.c.opens), "")
		r.c.storeMu.Unlock()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.recovers); n > 0 {
		res.set("restore.restored_ms_p50", medianDur(r.restoreds), "ms", n, "Run → EventStateRestored")
		res.set("restore.recover_ms_p50", medianDur(r.recovers), "ms", n, "Run → first certified round")
		res.set("restore.recover_ms_first", ms(r.recovers[0]), "ms", 1, "")
		res.set("restore.recover_ms_last", ms(r.recovers[n-1]), "ms", 1, "")
	}
	if n := len(r.rejoins); n > 0 {
		res.set("roster.expel_ms_p50", medianDur(r.expels), "ms", n, "Expel → victim's EventMemberExpelled")
		res.set("roster.rejoin_ms_p50", medianDur(r.rejoins), "ms", n, "Rejoin call")
		res.set("roster.update_bytes", mean(rosterUpdates), "bytes", len(rosterUpdates), "certified roster-update frame")
	}

	// Runtime.
	a0, a1 := r.rt[0], r.rt[1]
	res.set("proc.alloc_MB_per_round", perRound(float64(a1.allocs-a0.allocs)/1e6), "MB", int(rounds), "")
	res.set("proc.gc_cpu_frac", (a1.gcCPU-a0.gcCPU)/(a1.totalCPU-a0.totalCPU), "ratio", 1, "")
	res.set("trace.overhead_frac", 1-res.metrics["rounds_per_s"].Value/refRPS, "ratio", 1,
		"1 - traced/untraced rounds_per_s; over TCP includes the untagged dial path")
}

// setupTypes are the message types of the schedule shuffle.
var setupTypes = map[string]bool{
	"pseudonym-submit": true, "pseudonym-list": true, "shuffle-step": true,
	"schedule": true, "schedule-cert": true,
}

// postSpans renders one post's life as spans sharing its id.
func postSpans(tr *tracer, p *post, roundStart, certified time.Time) []span {
	root := tr.ids.Add(1)
	mk := func(name string, a, b time.Time) span {
		return span{ID: tr.ids.Add(1), Parent: root, Name: name, Start: tr.at(a), End: tr.at(b), Post: p.id, Round: p.round}
	}
	return []span{
		{ID: root, Name: spanPost, Start: tr.at(p.due), End: tr.at(p.delivered), Post: p.id, Round: p.round, Bytes: p.size},
		mk(spanSDKSend, p.sendStart, p.sendEnd),
		mk(spanQueue, p.due, roundStart),
		mk(spanRound, roundStart, certified),
		mk(spanFanout, certified, p.delivered),
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func medianDur(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = ms(d)
	}
	return median(v)
}
