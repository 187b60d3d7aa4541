package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a tail percentile before
// it may be reported: fewer, and the figure is one or two outliers.
const minTail = 10

// quantile returns the q-quantile (0 < q ≤ 1) of an ascending slice by
// the nearest-rank rule: the smallest sample with at least q·n samples
// at or below it. NaN for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
// The epsilon keeps q·n that is whole in exact arithmetic (0.99·1000)
// from rounding up a rank in floating point.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyond counts the samples ranked above the q-quantile among n.
func beyond(n int, q float64) int { return n - rank(n, q) }

// timing is a latency distribution reduced by the benchmark's rule: the
// median, plus the highest percentile (up to the one asked for) that
// has at least minTail samples beyond it.
type timing struct {
	N     int
	P50   float64
	Tail  float64
	TailQ float64 // quantile actually reported as the tail
}

// summarize reduces samples to a timing whose tail is the want-quantile
// when minTail samples lie beyond it, else the highest quantile that
// keeps minTail beyond (never below the median).
func summarize(samples []float64, want float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{N: len(s), P50: quantile(s, 0.5), TailQ: want}
	if len(s) == 0 {
		t.Tail = math.NaN()
		return t
	}
	if beyond(len(s), want) < minTail {
		t.TailQ = max(1-float64(minTail)/float64(len(s)), 0.5)
	}
	t.Tail = quantile(s, t.TailQ)
	return t
}

// postLatency times a post from when it was due, not from when the
// generator got round to sending it, so an open loop charges a stall to
// every post it delays. A post never delivered is charged the time from
// due to the end of the drain: a lower bound that misses every latency
// limit the benchmark could set.
func postLatency(due, delivered, drainEnd time.Time) (d time.Duration, ok bool) {
	if delivered.IsZero() {
		return drainEnd.Sub(due), false
	}
	return delivered.Sub(due), true
}

// interval is a closed-open span of monotonic nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns a span's duration minus the part of it covered by
// its children. Children may overlap each other or stick out of the
// span; only the covered part inside the span is subtracted, once.
func selfTime(span interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, span.start), min(c.end, span.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered, reach := int64(0), span.start
	for _, c := range cs {
		if c.end <= reach {
			continue
		}
		covered += c.end - max(c.start, reach)
		reach = c.end
	}
	return span.end - span.start - covered
}

// median returns the middle value of samples (NaN for none).
func median(samples []float64) float64 {
	return summarize(samples, 0.5).P50
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
