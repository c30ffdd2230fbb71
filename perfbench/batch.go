package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"offload/internal/model"
)

// minPasses is the fewest passes a batch run makes, however long each
// takes, so that every reported median has at least three samples.
const minPasses = 3

// passes runs passes until the budget is spent and at least minPasses
// have run. Each pass starts from a collected heap. In a traced run every
// second pass is traced, so plain and traced passes see the same machine
// and can be compared.
func passes(cfg runConfig, pass func(traced bool) error) error {
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < cfg.budget; i++ {
		runtime.GC()
		if err := pass(cfg.trace && i%2 == 1); err != nil {
			return err
		}
	}
	return nil
}

// passResult is what one pass of a batch workload measures.
type passResult struct {
	build, submit, run time.Duration
	setupAllocMB       float64
	runAllocMB         float64
	gcFrac             float64
	fingerprint        string
	bad                int64
	problems           []string
	counts             map[string]float64 // layer counters read after the run
}

func (p *passResult) result() *passResult { return p }

// results lists the shared part of each pass.
func results[P interface{ result() *passResult }](ps []P) []*passResult {
	out := make([]*passResult, len(ps))
	for i, p := range ps {
		out[i] = p.result()
	}
	return out
}

// summariseBatch checks a batch run's passes and fills the metrics batch
// workloads share: every pass must settle its tasks and produce the same
// fingerprint as every other pass and as earlier runs of the seed. It
// returns the median run-phase time of the plain passes, in seconds.
func summariseBatch(out *outcome, cfg runConfig, name string, tasks int, plain, traced []*passResult) (float64, error) {
	all := append(append([]*passResult(nil), plain...), traced...)
	for _, p := range all {
		out.attempted += int64(tasks)
		out.failed += p.bad
		out.problems = append(out.problems, p.problems...)
		if p.fingerprint != all[0].fingerprint {
			out.problem("pass fingerprint %q differs from %q", p.fingerprint, all[0].fingerprint)
		}
	}
	if err := checkFingerprint(cfg.workDir, cfg.root, fmt.Sprintf("%s-seed%d", name, cfg.seed), all[0].fingerprint); err != nil {
		out.problem("%v", err)
	}
	pick := func(ps []*passResult, f func(*passResult) float64) []float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return xs
	}
	run := pick(plain, func(p *passResult) float64 { return p.run.Seconds() })
	runMed := median(run)
	fmt.Fprintf(stderrLog, "%s: %d plain + %d traced passes of %d tasks; fingerprint %s\n",
		name, len(plain), len(traced), tasks, all[0].fingerprint)
	fmt.Fprintf(stderrLog, "%s: run phase seconds per pass %.4f\n", name, run)

	v := out.values
	v["tasks_per_s"] = float64(tasks) / runMed
	v["p50_ms"] = runMed * 1e3
	rss, err := peakRSSMB("self")
	if err != nil {
		return 0, err
	}
	v["peak_rss_mb"] = rss
	if !cfg.trace {
		return runMed, nil
	}
	for k, x := range plain[len(plain)-1].counts {
		v[k] = x
	}
	v["core.build_s"] = median(pick(plain, func(p *passResult) float64 { return p.build.Seconds() }))
	v["core.submit_s"] = median(pick(plain, func(p *passResult) float64 { return p.submit.Seconds() }))
	v["core.setup_alloc_mb"] = median(pick(plain, func(p *passResult) float64 { return p.setupAllocMB }))
	v["run.alloc_mb"] = median(pick(plain, func(p *passResult) float64 { return p.runAllocMB }))
	v["runtime.gc_cpu_frac"] = median(pick(plain, func(p *passResult) float64 { return p.gcFrac }))
	v["sim.ns_per_event"] = runMed * 1e9 / v["sim.events"]
	trun := median(pick(traced, func(p *passResult) float64 { return p.run.Seconds() }))
	v["trace.overhead_frac"] = (trun - runMed) / runMed
	return runMed, nil
}

// settleLog checks that every task of a batch settles exactly once and
// without failing. Task IDs are dense per stream: id = base + k with
// k in [1, perStream]. Each stream's slots are written only by the
// goroutine that runs that stream, so sharded fleets can share one log.
type settleLog struct {
	perStream int
	counts    []uint8
	failed    []uint8
	stray     []int // per stream: outcomes whose ID is out of range
}

func newSettleLog(streams, perStream int) *settleLog {
	return &settleLog{
		perStream: perStream,
		counts:    make([]uint8, streams*perStream),
		failed:    make([]uint8, streams*perStream),
		stray:     make([]int, streams),
	}
}

// hook returns the outcome hook for one stream whose task IDs start after
// base.
func (l *settleLog) hook(stream int, base model.TaskID) func(model.Outcome) {
	return func(o model.Outcome) {
		k := int(o.Task.ID-base) - 1
		if o.Task.ID <= base || k >= l.perStream {
			l.stray[stream]++
			return
		}
		i := stream*l.perStream + k
		if l.counts[i] < 255 {
			l.counts[i]++
		}
		if o.Failed {
			l.failed[i] = 1
		}
	}
}

// verify returns the number of tasks that did not settle exactly once
// successfully, and a description of the first few problems.
func (l *settleLog) verify() (bad int64, problems []string) {
	note := func(format string, args ...any) {
		if len(problems) < 5 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	for s, n := range l.stray {
		if n > 0 {
			bad += int64(n)
			note("stream %d: %d outcomes with unknown task IDs", s, n)
		}
	}
	for i, c := range l.counts {
		switch {
		case c != 1:
			bad++
			note("task %d of stream %d settled %d times", i%l.perStream+1, i/l.perStream, c)
		case l.failed[i] != 0:
			bad++
			note("task %d of stream %d failed", i%l.perStream+1, i/l.perStream)
		}
	}
	return bad, problems
}

// waitLog collects the serverless queue-wait interval of each outcome, to
// find the most invocations that waited at once.
type waitLog struct {
	starts, ends []float64
}

func (w *waitLog) hook(o model.Outcome) {
	if o.Placement == model.PlaceFunction && o.Exec.QueueWait > 0 {
		s := float64(o.Exec.Start)
		w.starts = append(w.starts, s)
		w.ends = append(w.ends, s+float64(o.Exec.QueueWait))
	}
}

// placements formats per-placement counts in a stable order.
func placements(by map[model.Placement]uint64) string {
	keys := make([]string, 0, len(by))
	vals := make(map[string]uint64, len(by))
	for p, n := range by {
		keys = append(keys, p.String())
		vals[p.String()] = n
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s:%d,", k, vals[k])
	}
	return s
}
