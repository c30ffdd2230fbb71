package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"offload/internal/exp"
	"offload/internal/metrics"
	"offload/internal/rng"
)

// suite-full: every offbench experiment at full scale except E21, run
// through exp.Runner with one worker. It is the only workload that
// exercises dag, core.Fleet, partition, adapt, fault, failover and chain.
// The seed permutes the order the experiments run in; the Runner derives
// each experiment's seed from its registry position, so the tables must
// equal the committed full-scale report whatever the order.
const goldenReport = "results/offbench_full.txt"

// suiteSetupReps is how many times a run repeats the suite's set-up, to
// report its median.
const suiteSetupReps = 21

// goldenSections splits an offbench text report into its per-experiment
// sections, keyed by experiment ID. A section runs from its "### <ID> —"
// header line up to the next header.
func goldenSections(report string) map[string]string {
	out := map[string]string{}
	var id string
	var cur strings.Builder
	flush := func() {
		if id != "" {
			out[id] = cur.String()
		}
		cur.Reset()
	}
	for _, line := range strings.SplitAfter(report, "\n") {
		if strings.HasPrefix(line, "### ") {
			flush()
			id = strings.Fields(line)[1]
		}
		cur.WriteString(line)
	}
	flush()
	return out
}

// renderResult formats one experiment the way offbench prints it.
func renderResult(id, claim string, tables []*metrics.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", id, claim)
	for _, t := range tables {
		fmt.Fprintln(&b, t.String())
	}
	return b.String()
}

// suiteSetup loads the reference report and lists the experiments in the
// order the seed gives them.
func suiteSetup(root string, seed uint64) (map[string]string, []exp.Experiment, error) {
	raw, err := os.ReadFile(filepath.Join(root, goldenReport))
	if err != nil {
		return nil, nil, err
	}
	golden := goldenSections(string(raw))
	byID := map[string]exp.Experiment{}
	for _, e := range exp.Registry() {
		byID[e.ID] = e
	}
	exps := make([]exp.Experiment, 0, len(suiteIDs))
	for _, id := range suiteIDs {
		e, ok := byID[id]
		if !ok {
			return nil, nil, fmt.Errorf("experiment %s is not in the registry", id)
		}
		if _, ok := golden[id]; !ok {
			return nil, nil, fmt.Errorf("%s has no %s section", goldenReport, id)
		}
		exps = append(exps, e)
	}
	src := rng.New(rng.Derive(seed, 4))
	for i := len(exps) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		exps[i], exps[j] = exps[j], exps[i]
	}
	return golden, exps, nil
}

// suitePass is what one pass of the suite measures.
type suitePass struct {
	wall        time.Duration
	allocMB     float64
	gcFrac      float64
	elapsed     map[string]float64 // per experiment, seconds
	allocByExp  map[string]float64 // per experiment, MB
	fingerprint string
	bad         int64
	problems    []string
}

func runSuitePass(golden map[string]string, exps []exp.Experiment, tr *tracer) *suitePass {
	if tr != nil {
		traced := make([]exp.Experiment, len(exps))
		for i, e := range exps {
			e := e
			name := "exp." + e.ID
			orig := e.Run
			e.Run = func(s exp.Scale) ([]*metrics.Table, error) {
				tr.begin(name)
				defer tr.end()
				return orig(s)
			}
			traced[i] = e
		}
		exps = traced
		tr.begin("pass")
		defer tr.end()
	}
	p := &suitePass{elapsed: map[string]float64{}, allocByExp: map[string]float64{}}
	runner := &exp.Runner{Scale: exp.Full(), Parallel: 1}
	r0 := readRuntime()
	t0 := time.Now()
	results, err := runner.Run(context.Background(), exps)
	p.wall = time.Since(t0)
	r1 := readRuntime()
	p.allocMB = r0.allocMB(r1)
	p.gcFrac = r0.gcFrac(r1)
	if err != nil {
		p.problems = append(p.problems, err.Error())
	}
	rendered := map[string]string{}
	for _, res := range results {
		p.elapsed[res.ID] = res.Elapsed.Seconds()
		p.allocByExp[res.ID] = float64(res.AllocBytes) / (1 << 20)
		if res.Err != nil {
			p.bad++
			continue
		}
		rendered[res.ID] = renderResult(res.ID, res.Claim, res.Tables)
		if rendered[res.ID] != golden[res.ID] {
			p.bad++
			p.problems = append(p.problems, fmt.Sprintf("%s tables differ from %s", res.ID, goldenReport))
		}
	}
	h := sha256.New()
	for _, id := range suiteIDs {
		fmt.Fprint(h, rendered[id])
	}
	p.fingerprint = hex.EncodeToString(h.Sum(nil))[:16]
	return p
}

func runSuiteFull(cfg runConfig) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	var setups []float64
	var golden map[string]string
	var exps []exp.Experiment
	for i := 0; i < suiteSetupReps; i++ {
		t0 := time.Now()
		g, e, err := suiteSetup(cfg.root, cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		golden, exps = g, e
	}
	order := make([]string, len(exps))
	for i, e := range exps {
		order[i] = e.ID
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var plain, traced []*suitePass
	err := passes(cfg, func(tracedPass bool) error {
		if tracedPass {
			traced = append(traced, runSuitePass(golden, exps, tr))
		} else {
			plain = append(plain, runSuitePass(golden, exps, nil))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	all := append(append([]*suitePass(nil), plain...), traced...)
	for _, p := range all {
		out.attempted += int64(len(exps))
		out.failed += p.bad
		out.problems = append(out.problems, p.problems...)
		if p.fingerprint != all[0].fingerprint {
			out.problem("pass fingerprint %s differs from %s", p.fingerprint, all[0].fingerprint)
		}
	}
	fmt.Fprintf(stderrLog, "suite-full: %d plain + %d traced passes in order %s; tables %s\n",
		len(plain), len(traced), strings.Join(order, ","), all[0].fingerprint)

	var wall, alloc, gc []float64
	for _, p := range plain {
		wall = append(wall, p.wall.Seconds())
		alloc = append(alloc, p.allocMB)
		gc = append(gc, p.gcFrac)
	}
	wallMed := median(wall)
	fmt.Fprintf(stderrLog, "suite-full: seconds per pass %.4f\n", wall)
	v := out.values
	v["setup_s"] = median(setups)
	v["tasks_per_s"] = float64(len(exps)) / wallMed
	v["p50_ms"] = wallMed * 1e3
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	v["peak_rss_mb"] = rss

	if cfg.trace {
		v["run.alloc_mb"] = median(alloc)
		v["runtime.gc_cpu_frac"] = median(gc)
		var twall []float64
		for _, p := range traced {
			twall = append(twall, p.wall.Seconds())
		}
		v["trace.overhead_frac"] = (median(twall) - wallMed) / wallMed
		for _, id := range suiteIDs {
			var s, mb []float64
			for _, p := range plain {
				s = append(s, p.elapsed[id])
				mb = append(mb, p.allocByExp[id])
			}
			v["exp."+id+"_s"] = median(s)
			v["exp."+id+"_alloc_mb"] = median(mb)
		}
		out.spans = tr
	}
	return out, nil
}
