package main

import (
	"time"

	"dissent"
)

// workload is one traffic mix over one group. No workload injects link
// delay: latency is processor time (plus fsync where a store is kept),
// and every member shares the machine's cores.
type workload struct {
	name string

	servers, clients int
	policy           func() dissent.Policy
	tcp              bool // loopback TCP, one listener per member; else SimNet
	stores           bool // a durable state store file per server

	// Open loop: rate posts/s round-robin over the posters. Closed
	// loop (rate 0): senders each keep outstanding posts in flight.
	rate        float64
	senders     int
	outstanding int
	postSize    int // bytes per post, frame header included

	victims      int           // clients expelled and rejoined back to back
	restartEvery time.Duration // server 2 stopped and restarted from its store
	downFor      time.Duration

	setups int // set-ups per run; setup_s is their median
}

var workloads = []*workload{
	// Microblog at scale: with 128 clients under the paper's policy,
	// per-message signature verification dominates, and setup_s times
	// the production modp-2048 key shuffle.
	{
		name:    "broadcast-sim",
		servers: 3, clients: 128,
		policy:   dissent.DefaultPolicy,
		rate:     40,
		postSize: 128,
		setups:   3,
	},
	// Filesharing: few members and 16 KB posts over loopback TCP move the
	// cost to hashing, pads, copies and socket framing. A closed loop,
	// since an open one collapses above capacity.
	{
		name:    "bulk-tcp",
		servers: 3, clients: 16,
		policy:      func() dissent.Policy { return testPolicy(16<<10, 0) },
		tcp:         true,
		senders:     8,
		outstanding: 2,
		postSize:    16000,
		setups:      15,
	},
	// The only workload that writes the durable store, runs roster
	// expel/rejoin and restores a restarted server.
	{
		name:    "churn-restart",
		servers: 3, clients: 32,
		policy:       func() dissent.Policy { return testPolicy(256, 8) },
		stores:       true,
		rate:         40,
		postSize:     128,
		victims:      2,
		restartEvery: 4 * time.Second,
		downFor:      500 * time.Millisecond,
		setups:       15,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// testPolicy is the test-grade policy the repository's cluster harness
// runs (a 512-bit test shuffle group, 4 shadows, fast windows), with
// the given open-slot length and beacon epoch; a nonzero epoch selects
// the harness's churn settings.
func testPolicy(openLen, epochRounds int) dissent.Policy {
	p := dissent.DefaultPolicy()
	p.MessageGroup = "modp-512-test"
	p.Shadows = 4
	p.WindowMin = 15 * time.Millisecond
	p.HardTimeout = 30 * time.Second
	p.DefaultOpenLen = openLen
	p.RetainRounds = 64
	p.BeaconEpochRounds = epochRounds
	if epochRounds > 0 {
		p.ReadmitCooldownRounds = 0
		p.Alpha = 0.5
		p.WindowThreshold = 0.6
		p.OpenAdmission = false
	}
	return p
}
