// Command perfbench is the repository benchmark: it runs one named
// workload against the offload stack built from this checkout, checks
// that the simulated and served results are correct, and prints the
// workload's metrics as one JSON object on the last line of stdout.
//
//	perfbench --workload decide-stream --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// benchmark instrumentation on the measured path. With --trace 1 it
// prints the per-layer metrics of a separate traced run; the traced
// run's spans are kept in memory and written to <build>/spans when the
// run ends. README.md lists every metric, its unit and its layer.
//
// run.sh builds this program and the offloadd daemon, then execs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a --trace 0 run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tasks_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// suiteIDs lists the experiments suite-full runs: the whole registry
// except E21, whose full scale takes minutes (flash-crowd covers the
// sharded engine at a size that fits a run).
var suiteIDs = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
	"E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E22",
}

// perLayer lists the metrics a --trace 1 run prints, on every workload.
// A layer the workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.build_s", "s"},
		{"core.setup_alloc_mb", "MB"},
		{"core.submit_s", "s"},
		{"sched.decide_ns", "ns"},
		{"sched.decide_self_ns", "ns"},
		{"sched.decide_calls", "count"},
		{"sched.decide_share", "ratio"},
		{"sched.predict_ns", "ns"},
		{"alloc.choose_ns", "ns"},
		{"alloc.choose_bytes", "B"},
		{"sim.events", "count"},
		{"sim.ns_per_event", "ns"},
		{"sim.windows", "count"},
		{"sim.epochs", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"run.alloc_mb", "MB"},
		{"serverless.invocations", "count"},
		{"serverless.cold_starts", "count"},
		{"serverless.queued_max", "count"},
		{"edge.executed", "count"},
		{"device.executed", "count"},
		{"network.transfers", "count"},
		{"trace.retained_b_per_task", "B"},
		{"trace.overhead_frac", "ratio"},
		{"serve.knee_rps", "1/s"},
		{"serve.submit_us", "us"},
		{"serve.submitwait_us", "us"},
		{"serve.http_rtt_us", "us"},
		{"serve.http_overhead_us", "us"},
		{"serve.lateness_ms", "ms"},
		{"serve.shed", "count"},
		{"serve.inflight_max", "count"},
		{"serve.p90_ms", "ms"},
		{"serve.p90_beyond", "count"},
		{"serve.p99_ms", "ms"},
		{"serve.p99_beyond", "count"},
		{"serve.p999_ms", "ms"},
		{"serve.p999_beyond", "count"},
		{"metrics.scrape_ms", "ms"},
	}
	for _, id := range suiteIDs {
		defs = append(defs, metricDef{"exp." + id + "_s", "s"})
	}
	for _, id := range suiteIDs {
		defs = append(defs, metricDef{"exp." + id + "_alloc_mb", "MB"})
	}
	return defs
}()

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of stdout.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig carries the command line into a workload.
type runConfig struct {
	seed    uint64
	budget  time.Duration // how long the measured phase runs
	trace   bool
	root    string // repository checkout
	binDir  string // where run.sh put the offloadd binary
	workDir string // build directory: fingerprints and spans go here
}

// outcome is what a workload hands back: its metric values (by name),
// how many operations it attempted and how many failed, the correctness
// verdict, and the spans of a traced run.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string // failed correctness checks; empty means correct
	spans     *tracer
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(runConfig) (*outcome, error){
	"decide-stream": runDecideStream,
	"flash-crowd":   runFlashCrowd,
	"serve-http":    runServeHTTP,
	"suite-full":    runSuiteFull,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: decide-stream, flash-crowd, serve-http or suite-full")
		seed     = fs.Uint64("seed", 1, "seed the workload's inputs derive from")
		seconds  = fs.Float64("seconds", 25, "length of the measured phase in seconds")
		traceOn  = fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
		root     = fs.String("root", ".", "repository checkout")
		binDir   = fs.String("bin", ".bench_build/bin", "directory holding the offloadd binary")
		workDir  = fs.String("work", ".bench_build", "directory for fingerprints and span exports")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		trace:   *traceOn == 1,
		root:    *root,
		binDir:  *binDir,
		workDir: *workDir,
	}
	out, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if cfg.trace && out.spans != nil {
		path := filepath.Join(cfg.workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, cfg.seed))
		if err := out.spans.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", out.spans.len(), path)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep, err := buildReport(out, defs, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", *workload, p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// buildReport turns a workload's values into the printed object, keeping
// the metrics defs lists. Per-layer metrics of layers the workload does
// not exercise print as 0; an end-to-end metric that is missing or 0 is a
// bug in the workload driver, as is a value under a name no catalog has.
func buildReport(out *outcome, defs []metricDef, perLayerRun bool) (report, error) {
	rep := report{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	known := make(map[string]bool, len(endToEnd)+len(perLayer))
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		known[d.name] = true
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !perLayerRun && (!ok || v == 0) {
			return report{}, fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range out.values {
		if !known[name] {
			return report{}, fmt.Errorf("metric %s is not in the catalog", name)
		}
	}
	if rep.Attempted < 1 {
		return report{}, fmt.Errorf("no operation attempted")
	}
	return rep, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// stderrLog receives the human-readable details of a run: pass counts,
// fingerprints, tail latencies. Stdout carries only the result line.
var stderrLog io.Writer = os.Stderr
