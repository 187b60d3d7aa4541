// Command perfbench is the repository benchmark: it runs one named
// workload over whole Dissent groups built from the public SDK, all in
// this process, and prints every metric BENCHMARK.json declares. With
// -trace 0 those are the end-to-end metrics; with -trace 1 a separate
// traced run reports the per-layer ones. Outputs are checked, and a
// failed check exits 1.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload churn-restart --seed 7 --seconds 30 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(mainErr()) }

func mainErr() int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := flags.String("workload", "", "workload to run")
	seed := flags.Uint64("seed", 1, "workload seed: member keys, poster order, payload bytes, victims, restart schedule")
	seconds := flags.Float64("seconds", 30, "length of the measured window")
	trace := flags.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	out := flags.String("out", ".bench_build/perfbench", "directory for reports, span dumps and store files")
	if err := flags.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the repository root)\n", err)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	prov := provenance(*seed, w.name, *seconds, *trace)
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))

	cfg := config{w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), out: *out}
	var res *result
	if *trace == 0 {
		res, err = runPlain(context.Background(), cfg)
	} else {
		res, err = runTraced(context.Background(), cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	want := decl.endToEnd
	if *trace == 1 {
		want = decl.perLayer
	}
	final := res.print(os.Stdout, want)
	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	report := map[string]any{"provenance": prov, "result": final, "metrics": res.metrics, "problems": res.problems,
		"rounds_per_second": res.roundsPerSecond, "setups_s": res.setups}
	b, err := json.MarshalIndent(report, "", "  ")
	if err == nil {
		err = os.WriteFile(base+".json", b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing report: %v\n", err)
	}
	if res.tracer != nil {
		if err := res.tracer.write(base+"-spans.jsonl", res.postSpans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	b, _ = json.Marshal(final)
	fmt.Println(string(b))
	if !final.Correct {
		for _, p := range res.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: check failed: %s\n", w.name, *seed, p)
		}
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// declared is the metric list BENCHMARK.json fixes: the benchmark
// prints exactly these names, with these units.
type declared struct {
	endToEnd, perLayer []declaredMetric
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(path string) (declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return declared{}, err
	}
	var doc struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return declared{}, fmt.Errorf("%s: %w", path, err)
	}
	return declared{doc.EndToEnd, doc.PerLayer}, nil
}

// provenance records what produced a result.
func provenance(seed uint64, workload string, seconds float64, trace int) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

// commit names the source the binary was built from: the VCS revision
// when the build recorded one, else a digest of the checkout's Go
// sources and module files.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
	Note  string  `json:"note,omitempty"`
}

// result is a finished run: every metric it computed, and whether
// every correctness check passed.
type result struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
	tracer    *tracer
	postSpans []span
	// roundsPerSecond is server 0's certified-round rate in each second
	// of the window, kept in the report to show how steady a run was.
	roundsPerSecond []float64
	setups          []float64 // each set-up's time, s
}

// set records a metric; a NaN (no samples) leaves it unset.
func (r *result) set(name string, v float64, unit string, n int, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, N: n, Note: note}
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]finalValue `json:"metrics"`
}

type finalValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes a table of the declared metrics and the problems found,
// and returns the final line. A declared metric the workload does not
// exercise reads 0 with no samples.
func (r *result) print(out io.Writer, want []declaredMetric) finalLine {
	fl := finalLine{Correct: len(r.problems) == 0, Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: make(map[string]finalValue)}
	for _, d := range want {
		m, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m = metric{Unit: d.Unit, Note: "not exercised by this workload"}
		}
		if m.Unit != d.Unit {
			r.problems = append(r.problems, fmt.Sprintf("metric %s measured in %s but declared in %s", d.Name, m.Unit, d.Unit))
			fl.Correct = false
		}
		fmt.Fprintf(out, "%-44s %14.4f %-9s n=%-7d %s\n", d.Name, m.Value, d.Unit, m.N, m.Note)
		fl.Metrics[d.Name] = finalValue{Value: m.Value, Unit: d.Unit}
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", p)
	}
	return fl
}
