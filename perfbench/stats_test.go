package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: summarize must sort
	}
	return s
}

func TestSummarizeKeepsP99WithTenBeyond(t *testing.T) {
	got := summarize(seq(1000), 0.99)
	if got.N != 1000 || got.TailQ != 0.99 || got.Tail != 990 || got.P50 != 500 {
		t.Fatalf("summarize(1..1000) = %+v, want p50 500, p99 990", got)
	}
	if b := beyond(1000, 0.99); b != minTail {
		t.Fatalf("beyond(1000, .99) = %d, want %d", b, minTail)
	}
}

func TestSummarizeFallsBackWhenTailIsThin(t *testing.T) {
	got := summarize(seq(800), 0.99)
	// Only 8 samples lie beyond p99 of 800: fall back to the highest
	// quantile with 10 beyond, 1 - 10/800 = 0.9875, rank 790.
	if got.TailQ != 1-10.0/800 || got.Tail != 790 {
		t.Fatalf("summarize(1..800) = %+v, want tail 790 at q 0.9875", got)
	}
	if b := beyond(800, got.TailQ); b != minTail {
		t.Fatalf("fallback tail has %d beyond, want %d", b, minTail)
	}
	small := summarize(seq(12), 0.99)
	if small.TailQ != 0.5 || small.Tail != small.P50 {
		t.Fatalf("summarize(1..12) = %+v, want the tail clamped to the median", small)
	}
	if empty := summarize(nil, 0.99); empty.N != 0 || !math.IsNaN(empty.P50) || !math.IsNaN(empty.Tail) {
		t.Fatalf("summarize(nil) = %+v, want NaNs", empty)
	}
}

func TestPostLatencyCountsFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	// The generator stalled 30ms before sending; the post arrived 50ms
	// after it was sent. The stall is charged: 80ms from due.
	sent := due.Add(30 * time.Millisecond)
	delivered := sent.Add(50 * time.Millisecond)
	drainEnd := due.Add(5 * time.Second)
	if d, ok := postLatency(due, delivered, drainEnd); !ok || d != 80*time.Millisecond {
		t.Fatalf("postLatency = %v, %v; want 80ms, true", d, ok)
	}
	if d, ok := postLatency(due, time.Time{}, drainEnd); ok || d != 5*time.Second {
		t.Fatalf("undelivered postLatency = %v, %v; want 5s (to drain end), false", d, ok)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	span := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 140}, {130, 150}}, 60},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"sticking out", []interval{{50, 120}, {180, 400}}, 60},
		{"outside", []interval{{0, 50}, {300, 400}}, 100},
		{"covering", []interval{{0, 400}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}
