package main

import (
	"strings"
	"testing"

	"dissent/internal/bench"
)

func TestPerfRowValueRow(t *testing.T) {
	row := perfRow(bench.PerfResult{Name: "round-pipeline/depth2", Value: 11.83, Unit: "rounds/s"})
	fields := strings.Fields(row)
	want := []string{"round-pipeline/depth2", "11.83", "rounds/s", "-", "-", "-"}
	if strings.Join(fields, " ") != strings.Join(want, " ") {
		t.Fatalf("value row rendered %q, want fields %q", row, want)
	}
}

func TestPerfRowTimingRow(t *testing.T) {
	row := perfRow(bench.PerfResult{Name: "server-pad/128clients", NsPerOp: 12345.6, MBPerSec: 80.04,
		AllocsPerOp: 3, BytesPerOp: 96})
	fields := strings.Fields(row)
	want := []string{"server-pad/128clients", "12346", "80.0", "3", "96"}
	if strings.Join(fields, " ") != strings.Join(want, " ") {
		t.Fatalf("timing row rendered %q, want fields %q", row, want)
	}
	if f := strings.Fields(perfRow(bench.PerfResult{Name: "x", NsPerOp: 5})); f[2] != "-" {
		t.Fatalf("row without throughput shows MB/s %q, want -", f[2])
	}
}
