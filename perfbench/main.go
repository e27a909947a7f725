// Command perfbench is the repository's benchmark. One invocation runs one
// workload in a fresh process for a fixed number of seconds, checks that
// the program's outputs are correct, prints every metric by name with its
// unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run prints the per-layer ledger and reports the
// per-layer metrics. BENCHMARK.json at the repository root lists both
// sets, and README.md in this directory explains the workloads, the
// mapping from layer metrics to end-to-end metrics, and the baseline.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload campaign-small --seed 1 --seconds 45 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit. The lists below are the
// metric sets BENCHMARK.json declares (a test keeps the two in step).
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"traceroutes", "count"},
	{"auprc", "ratio"},
	{"precision_at_thr", "ratio"},
	{"recall_at_thr", "ratio"},
}

var perLayer = []metricDef{
	{"probe.select_s", "s"},
	{"probe.select_calls", "count"},
	{"probe.alloc_mb", "MB"},
	{"probe.informative_frac", "ratio"},
	{"rank.sweep_self_s", "s"},
	{"rank.ranks_tried", "count"},
	{"als.complete_s", "s"},
	{"threshold.s", "s"},
	{"traceroute.trace_s", "s"},
	{"traceroute.traces", "count"},
	{"bgp.prop_s", "s"},
	{"bgp.propagations", "count"},
	{"bgp.hit_ratio", "ratio"},
	{"bgp.invalidated", "count"},
	{"obs.addtrace_s", "s"},
	{"obs.estimate_s", "s"},
	{"engine.utilization", "ratio"},
	{"engine.busy_s", "s"},
	{"netsim.generate_s", "s"},
	{"snapshot.load_s", "s"},
	{"netsim.evolve_s", "s"},
	{"stream.seed_traces_s", "s"},
	{"stream.rescore_s", "s"},
	{"api.state_build_s", "s"},
	{"api.estimate_p99_ms", "ms"},
	{"api.peers_p99_ms", "ms"},
	{"api.read_blocked_frac", "ratio"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"ledger.traced_wall_s", "s"},
	{"ledger.named_frac", "ratio"},
	{"ledger.residual_frac", "ratio"},
	{"ledger.overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects one run's checks, report lines and metrics.
type outcome struct {
	out               io.Writer
	attempted, failed int
	errs              []string
	metrics           map[string]metricValue
	ledger            func()
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

func (o *outcome) notef(format string, args ...any) {
	fmt.Fprintf(o.out, "note   "+format+"\n", args...)
}

// report prints one end-to-end metric by the name the workload's user
// knows it by, with its unit.
func (o *outcome) report(name string, v float64, unit, note string) {
	fmt.Fprintf(o.out, "metric %-18s %14.6g %-6s # %s\n", name, v, unit, note)
}

func (o *outcome) reportErrorFrac() {
	o.report("error_frac", ratio(float64(o.failed), float64(o.attempted)), "ratio",
		fmt.Sprintf("%d failed or refused of %d attempted", o.failed, o.attempted))
}

func (o *outcome) metric(name string, v float64, unit string) {
	o.metrics[name] = metricValue{Value: v, Unit: unit}
}

// ledgerMetrics records the ledger's totals per traced iteration.
func (o *outcome) ledgerMetrics(rows map[string]*row, wall, residual, untraced time.Duration, iters int) {
	var named time.Duration
	for _, r := range rows {
		named += r.Self
	}
	o.metric("ledger.traced_wall_s", wall.Seconds()/float64(iters), "s")
	o.metric("ledger.named_frac", share(named, wall), "ratio")
	o.metric("ledger.residual_frac", share(residual, wall), "ratio")
	o.metric("ledger.overhead_frac", share(wall-untraced, untraced), "ratio")
	if share(named, wall) < 0.9 {
		o.attempted++
		o.fail("named layers cover %.1f%% of the traced wall, below 90%%", 100*share(named, wall))
	}
}

func (o *outcome) writeSpans(t *tracer, path string) {
	if err := t.writeSpans(path); err != nil {
		o.attempted++
		o.fail("write spans: %v", err)
		return
	}
	o.notef("%d spans written to %s", len(t.spans), path)
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "campaign-small, metro-internet or serve-churn")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	secs := flag.Int("seconds", 45, "how long the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer ledger")
	buildDir := flag.String("build-dir", ".bench_build", "directory holding the built binaries and run outputs")
	flag.Parse()
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	o := &outcome{out: os.Stdout, metrics: map[string]metricValue{}}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("stamp  commit=%s go=%s nproc=%d gomaxprocs=%d workload=%s seed=%d seconds=%d trace=%d\n",
		sourceID(root), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), *workload, *seed, *secs, *trace)

	ctx := context.Background()
	dur := time.Duration(*secs) * time.Second
	spans := filepath.Join(*buildDir, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
	traced := *trace == 1
	switch *workload {
	case "campaign-small", "metro-internet":
		spec := &campaignSmall
		if *workload == "metro-internet" {
			spec = &metroInternet
		}
		if traced {
			runCampaignTraced(ctx, spec, *seed, dur, o, spans)
		} else {
			runCampaignWorkload(ctx, spec, *seed, dur, o)
		}
	case "serve-churn":
		runServeChurn(ctx, serveOptions{
			seed:     *seed,
			dur:      dur,
			daemon:   filepath.Join(*buildDir, "metascriticd"),
			workDir:  *buildDir,
			traced:   traced,
			spanPath: spans,
		}, o)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if o.ledger != nil {
		o.ledger()
	}
	return o.finish(traced)
}

// finish prints the result line. Metrics a workload does not exercise
// (a serving layer on a campaign workload, say) report 0 in the traced
// run; every end-to-end metric must have been measured.
func (o *outcome) finish(traced bool) int {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok && !traced && o.failed == 0 {
			o.attempted++
			o.fail("end-to-end metric %s was not measured", d.Name)
		}
		v.Unit = d.Unit
		metrics[d.Name] = v
	}
	for _, e := range o.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", e)
	}
	if o.attempted == 0 {
		o.attempted = 1
		o.failed = 1
	}
	correct := o.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, o.attempted, o.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// sourceID identifies the measured source: the git commit when the tree
// is a repository, otherwise a digest of every Go source and module file
// outside the build directory.
func sourceID(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD")
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the fingerprint
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("src-%x", h.Sum(nil)[:6])
}
