// Command dissent-bench regenerates every table and figure of the
// paper's evaluation (§5).
//
// Usage:
//
//	dissent-bench -exp all            # everything (takes a while)
//	dissent-bench -exp fig7 -quick    # one experiment, scaled down
//
// Experiments: window-policy (the §5.1 table), fig6, fig7, fig8, fig9,
// fig10, fig11, all. Output is plain text: one series per block,
// "x y ..." rows suitable for gnuplot.
//
// The additional "perf" experiment measures the DC-net data-plane hot
// paths (parallel pad expansion, streaming combine critical path,
// zero-allocation client submit, slot codec) and, with -json FILE,
// writes a machine-readable report — the repository's BENCH_*.json
// perf trajectory is recorded this way:
//
//	dissent-bench -exp perf -json BENCH_seed.json
//
// With -compare FILE the perf run is additionally gated against a
// committed baseline report: any benchmark slower than
// baseline*threshold (default 2x, see -threshold) exits non-zero. CI
// runs this as the bench regression gate:
//
//	dissent-bench -exp perf -quick -compare BENCH_pr7.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"dissent/internal/bench"
)

var clientsOverride []int

func main() {
	exp := flag.String("exp", "all", "experiment: window-policy|fig6|fig7|fig8|fig9|fig10|fig11|perf|all")
	quick := flag.Bool("quick", false, "scaled-down configurations")
	clients := flag.String("clients", "", "comma-separated client counts overriding fig7's sweep")
	jsonOut := flag.String("json", "", "with -exp perf: write the JSON perf report to this file")
	compare := flag.String("compare", "", "with -exp perf: gate against this baseline BENCH_*.json, exit 1 on regression")
	threshold := flag.Float64("threshold", 2.0, "with -compare: regression ratio that fails the gate")
	note := flag.String("note", "", "with -exp perf -json: environment caveat recorded in the report")
	flag.Parse()
	log.SetFlags(0)
	if *exp == "perf" {
		runPerf(*quick, *jsonOut, *compare, *threshold, *note)
		return
	}
	if *clients != "" {
		for _, part := range strings.Split(*clients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "bad -clients value %q\n", part)
				os.Exit(2)
			}
			clientsOverride = append(clientsOverride, n)
		}
	}

	run := map[string]func(bool){
		"window-policy": runWindowPolicy,
		"fig6":          runFig6,
		"fig7":          runFig7,
		"fig8":          runFig8,
		"fig9":          runFig9,
		"fig10":         func(q bool) { runFig10(q, false) },
		"fig11":         func(q bool) { runFig10(q, true) },
	}
	if *exp == "all" {
		for _, name := range []string{"window-policy", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
			fmt.Printf("\n===== %s =====\n", name)
			run[name](*quick)
		}
		return
	}
	fn, ok := run[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	fn(*quick)
}

func runPerf(quick bool, jsonOut, compare string, threshold float64, note string) {
	fmt.Println("# data-plane perf suite (pad expansion, streaming combine, submit path)")
	rep := bench.PerfSuite(quick)
	rep.Note = note
	fmt.Printf("go %s %s/%s GOMAXPROCS=%d\n", rep.GoVersion, rep.GOOS, rep.GOARCH, rep.GOMAXPROCS)
	fmt.Printf("%-44s %-14s %-12s %-10s %s\n", "benchmark", "ns/op", "MB/s", "allocs/op", "B/op")
	for _, r := range rep.Results {
		fmt.Println(perfRow(r))
	}
	if jsonOut != "" {
		b, err := rep.WriteJSON()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(jsonOut, b, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# wrote %s\n", jsonOut)
	}
	if compare != "" {
		baseline, err := bench.ReadPerfReport(compare)
		if err != nil {
			log.Fatal(err)
		}
		regs, skipped := bench.ComparePerf(baseline, rep, threshold)
		for _, s := range skipped {
			fmt.Printf("# gate: skipped %s\n", s)
		}
		if len(regs) > 0 {
			fmt.Printf("# gate: %d regression(s) vs %s (threshold %.1fx):\n", len(regs), compare, threshold)
			for _, r := range regs {
				fmt.Printf("#   %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("# gate: ok vs %s (threshold %.1fx)\n", compare, threshold)
	}
}

// perfRow renders one perf result as a table line. A row carrying a
// Unit is a scenario measurement (rounds/s, byte totals), not a per-op
// timing: it prints "value unit" in the ns/op column and dashes in the
// per-op columns it has no figures for.
func perfRow(r bench.PerfResult) string {
	if r.Unit != "" {
		return fmt.Sprintf("%-44s %-14s %-12s %-10s %s", r.Name, fmt.Sprintf("%.4g %s", r.Value, r.Unit), "-", "-", "-")
	}
	mbs := "-"
	if r.MBPerSec > 0 {
		mbs = fmt.Sprintf("%.1f", r.MBPerSec)
	}
	return fmt.Sprintf("%-44s %-14.0f %-12s %-10d %d", r.Name, r.NsPerOp, mbs, r.AllocsPerOp, r.BytesPerOp)
}

func fig6Config(quick bool) bench.Fig6Config {
	if quick {
		return bench.QuickFig6Config()
	}
	return bench.DefaultFig6Config()
}

func runWindowPolicy(quick bool) {
	fmt.Println("# §5.1 window-closure policy table")
	fmt.Println("# paper: 1.1x: 2.3%, 1.2x: 1.5%, 2x: 0.5% of clients missed the window")
	results, err := bench.Fig6(fig6Config(quick))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-15s %-14s %s\n", "policy", "missed-clients", "rounds-at-hard-deadline")
	for _, r := range results {
		fmt.Printf("%-15s %-14s %.1f%%\n", r.Policy.Name,
			fmt.Sprintf("%.1f%%", r.MissedFrac*100), r.DeadlineFrac*100)
	}
}

func runFig6(quick bool) {
	fmt.Println("# Figure 6: CDF of message exchange time per window policy")
	results, err := bench.Fig6(fig6Config(quick))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Printf("\n## policy %s (exchange-time-seconds cumulative-fraction)\n", r.Policy.Name)
		for _, pt := range bench.CDF(r.Times) {
			fmt.Printf("%.3f %.4f\n", pt[0], pt[1])
		}
	}
}

func runFig7(quick bool) {
	fmt.Println("# Figure 7: time per round vs clients (32 servers)")
	cfg := bench.DefaultFig7Config()
	if quick {
		cfg = bench.QuickFig7Config()
	}
	if len(clientsOverride) > 0 {
		cfg.ClientSizes = clientsOverride
	}
	rows, err := bench.Fig7(cfg)
	if err != nil {
		log.Fatal(err)
	}
	printScaleRows(rows)
}

func runFig8(quick bool) {
	fmt.Println("# Figure 8: time per round vs servers (640 clients)")
	cfg := bench.DefaultFig8Config()
	if quick {
		cfg = bench.QuickFig8Config()
	}
	rows, err := bench.Fig8(cfg)
	if err != nil {
		log.Fatal(err)
	}
	printScaleRows(rows)
}

func printScaleRows(rows []bench.ScaleRow) {
	fmt.Printf("%-8s %-8s %-22s %-10s %-12s %-12s %-12s\n",
		"clients", "servers", "scenario", "profile", "submission", "processing", "total")
	for _, r := range rows {
		fmt.Printf("%-8d %-8d %-22s %-10s %-12s %-12s %-12s\n",
			r.Clients, r.Servers, r.Scenario, r.Profile,
			fmtDur(r.Submit), fmtDur(r.Process), fmtDur(r.Total))
	}
}

func runFig9(quick bool) {
	fmt.Println("# Figure 9: full protocol run breakdown (24 servers, 128-byte messages)")
	cfg := bench.DefaultFig9Config()
	if quick {
		cfg.ClientSizes = []int{24, 100}
	}
	rows := bench.Fig9(cfg)
	fmt.Printf("%-8s %-14s %-14s %-16s %-14s\n",
		"clients", "key-shuffle", "dcnet-round", "blame-shuffle", "blame-eval")
	for _, r := range rows {
		fmt.Printf("%-8d %-14s %-14s %-16s %-14s\n", r.Clients,
			fmtDur(r.KeyShuffle), fmtDur(r.DCNetRound), fmtDur(r.BlameShuffle), fmtDur(r.BlameEval))
	}
	vServers, vClients, vShadows := 3, 12, 6
	if !quick {
		vServers, vClients = 4, 24
	}
	fmt.Printf("\n# model validation against real shuffle execution (%d servers, %d clients, k=%d)\n",
		vServers, vClients, vShadows)
	v, err := bench.Fig9Validate(vServers, vClients, vShadows)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("key shuffle: real %-12s model %-12s\n", fmtDur(v.KeyShuffleReal), fmtDur(v.KeyShuffleModel))
	fmt.Printf("msg shuffle: real %-12s model %-12s\n", fmtDur(v.MsgShuffleReal), fmtDur(v.MsgShuffleModel))
}

func runFig10(quick, cdf bool) {
	if cdf {
		fmt.Println("# Figure 11: CDF of page download times")
	} else {
		fmt.Println("# Figure 10: Alexa-Top-100 download times per configuration")
	}
	cfg := bench.DefaultFig10Config()
	if quick {
		cfg = bench.QuickFig10Config()
	}
	results, err := bench.Fig10(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if cdf {
		for _, r := range results {
			fmt.Printf("\n## config %s (download-seconds cumulative-fraction)\n", r.Config)
			times := append([]time.Duration(nil), r.Stats.Times...)
			sortDurations(times)
			for _, pt := range bench.CDF(times) {
				fmt.Printf("%.2f %.4f\n", pt[0], pt[1])
			}
		}
		return
	}
	fmt.Printf("%-14s %-10s %-10s %-10s %-10s\n", "config", "mean", "p50", "p90", "pages")
	for _, r := range results {
		fmt.Printf("%-14s %-10s %-10s %-10s %d\n", r.Config,
			fmtDur(r.Stats.Mean()), fmtDur(r.Stats.Percentile(50)),
			fmtDur(r.Stats.Percentile(90)), len(r.Stats.Times))
	}
}

func sortDurations(d []time.Duration) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j] < d[j-1]; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.0fms", float64(d)/1e6)
	}
}
