// Command offsim runs one offloading scenario: a task stream from the
// application templates scheduled by a chosen policy over the simulated
// substrates, reporting completion times, money, energy and placements.
//
// With -reps N it runs N replications of the scenario concurrently
// (bounded by -parallel), each on its own seed derived with
// rng.Derive(-seed, rep) — so the replication table is identical for any
// worker count, like offbench's suite.
//
// Usage:
//
//	offsim -policy deadline-aware -tasks 1000 -rate 0.02
//	offsim -app sci-batch -policy cloud-all -trace run.jsonl
//	offsim -no-edge -no-vm            # the framework's serverless-only deployment
//	offsim -reps 10 -parallel 4       # seed-replicated confidence runs
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"

	"offload/internal/callgraph"
	"offload/internal/core"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/trace"
	"offload/internal/workload"
)

func main() {
	var (
		policyFlag = flag.String("policy", "deadline-aware", "placement policy (see `offctl policies`: local-only|edge-all|cloud-all|vm-all|random|threshold|deadline-aware|bandit-ucb|bandit-greedy)")
		appFlag    = flag.String("app", "", "single application template (default: five-template mix)")
		tasksFlag  = flag.Int("tasks", 500, "number of tasks")
		rateFlag   = flag.Float64("rate", 0.02, "Poisson arrival rate per second")
		seedFlag   = flag.Uint64("seed", 1, "RNG seed")
		noEdge     = flag.Bool("no-edge", false, "remove the edge site")
		noVM       = flag.Bool("no-vm", false, "remove the VM fleet")
		batchFlag  = flag.Int("batch", 0, "batch size for serverless tasks (0 = off)")
		traceFlag  = flag.String("trace", "", "write a JSONL task trace to this file")
		replayFlag = flag.String("replay", "", "replay a JSONL task trace instead of generating a workload")
		budgetFlag = flag.Float64("budget", 0, "daily serverless budget in USD (0 = unlimited)")
		repsFlag   = flag.Int("reps", 1, "seed replications of the scenario (deterministic per -seed)")
		parFlag    = flag.Int("parallel", 0, "worker pool for -reps (0 = NumCPU); output identical for any value")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Seed = *seedFlag
	cfg.Policy = core.PolicyName(*policyFlag)
	cfg.ArrivalRateHint = *rateFlag
	if *noEdge {
		cfg.Edge, cfg.EdgePath = nil, nil
	}
	if *noVM {
		cfg.VM = nil
	}
	if *batchFlag > 0 {
		cfg.Batch = &core.BatchConfig{Size: *batchFlag, MaxWait: 3600}
	}
	cfg.DailyBudgetUSD = *budgetFlag

	if *repsFlag > 1 && (*traceFlag != "" || *replayFlag != "") {
		fail(fmt.Errorf("-reps is incompatible with -trace/-replay"))
	}

	sys, err := core.NewSystem(cfg)
	if err != nil {
		fail(err)
	}
	if *traceFlag != "" {
		sys.EnableRecords()
	}

	if *replayFlag != "" {
		f, err := os.Open(*replayFlag)
		if err != nil {
			fail(err)
		}
		records, err := trace.ReadJSONL(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		if err := trace.Replay(sys.Eng, records, sys.Submit); err != nil {
			fail(err)
		}
		*tasksFlag = len(records)
		sys.Run()
		printSummary(sys, "replay:"+*replayFlag, *tasksFlag, 0)
		writeTrace(sys, *traceFlag)
		return
	}

	var mix []workload.WeightedTemplate
	if *appFlag != "" {
		g, ok := callgraph.Templates()[*appFlag]
		if !ok {
			fail(fmt.Errorf("unknown app %q (have %v)", *appFlag, callgraph.TemplateNames()))
		}
		t, err := workload.FromGraph(g)
		if err != nil {
			fail(err)
		}
		mix = []workload.WeightedTemplate{{Template: t, Weight: 1}}
	} else {
		for _, name := range callgraph.TemplateNames() {
			t, err := workload.FromGraph(callgraph.Templates()[name])
			if err != nil {
				fail(err)
			}
			mix = append(mix, workload.WeightedTemplate{Template: t, Weight: 1})
		}
	}
	if *repsFlag > 1 {
		runReps(cfg, mix, *policyFlag, *tasksFlag, *rateFlag, *repsFlag, *parFlag)
		return
	}

	gen, err := workload.NewGenerator(sys.Src.Split(), mix)
	if err != nil {
		fail(err)
	}

	sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), *rateFlag), gen, *tasksFlag)
	sys.Run()
	printSummary(sys, *policyFlag, *tasksFlag, *rateFlag)
	writeTrace(sys, *traceFlag)
}

// repStats is the deterministic slice of one replication's outcome.
type repStats struct {
	seed               uint64
	completed, failed  uint64
	meanS, p95S        float64
	missRate           float64
	usdPerTask, energy float64
}

// runReps executes reps independent replications of the scenario on a
// bounded worker pool. Replication r runs with seed rng.Derive(base, r) —
// a pure function of the base seed and the replication index — so the
// table below is byte-identical for every -parallel value, and the
// mean/stddev rows quantify seed sensitivity rather than scheduling luck.
func runReps(cfg core.Config, mix []workload.WeightedTemplate, policy string, tasks int, rate float64, reps, workers int) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > reps {
		workers = reps
	}
	stats := make([]repStats, reps)
	jobs := make(chan int)
	var wg sync.WaitGroup
	var firstErr error
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				st, err := runOneRep(cfg, mix, rate, tasks, rng.Derive(cfg.Seed, uint64(r)))
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				stats[r] = st
			}
		}()
	}
	for r := 0; r < reps; r++ {
		jobs <- r
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		fail(firstErr)
	}

	tbl := metrics.NewTable(
		fmt.Sprintf("offsim: %s, %d tasks at %g/s, %d seed replications", policy, tasks, rate, reps),
		"rep", "seed", "completed", "failed", "mean_s", "p95_s", "miss", "usd_per_task", "mJ_per_task")
	var acc metricAccum
	for r, st := range stats {
		tbl.AddRow(
			fmt.Sprintf("%d", r),
			fmt.Sprintf("%d", st.seed),
			fmt.Sprintf("%d", st.completed),
			fmt.Sprintf("%d", st.failed),
			fmt.Sprintf("%.4g", st.meanS),
			fmt.Sprintf("%.4g", st.p95S),
			fmt.Sprintf("%.1f%%", 100*st.missRate),
			fmt.Sprintf("%.4g", st.usdPerTask),
			fmt.Sprintf("%.4g", st.energy),
		)
		acc.observe(st)
	}
	acc.finishStddev(stats)
	n := float64(reps)
	tbl.AddRow("mean", "-", "-", "-",
		fmt.Sprintf("%.4g", acc.meanS/n),
		fmt.Sprintf("%.4g", acc.p95S/n),
		fmt.Sprintf("%.1f%%", 100*acc.miss/n),
		fmt.Sprintf("%.4g", acc.usd/n),
		fmt.Sprintf("%.4g", acc.energy/n),
	)
	tbl.AddRow("stddev", "-", "-", "-",
		fmt.Sprintf("%.3g", acc.sdMeanS),
		fmt.Sprintf("%.3g", acc.sdP95S),
		fmt.Sprintf("%.3g", acc.sdMiss),
		fmt.Sprintf("%.3g", acc.sdUSD),
		fmt.Sprintf("%.3g", acc.sdEnergy),
	)
	fmt.Println(tbl.String())
}

// metricAccum accumulates sums (and later stddevs) over replications.
type metricAccum struct {
	meanS, p95S, miss, usd, energy           float64
	sdMeanS, sdP95S, sdMiss, sdUSD, sdEnergy float64
}

func (a *metricAccum) observe(st repStats) {
	a.meanS += st.meanS
	a.p95S += st.p95S
	a.miss += st.missRate
	a.usd += st.usdPerTask
	a.energy += st.energy
}

func (a *metricAccum) finishStddev(stats []repStats) {
	n := float64(len(stats))
	if n < 2 {
		return
	}
	var vMean, vP95, vMiss, vUSD, vEnergy float64
	for _, st := range stats {
		vMean += sq(st.meanS - a.meanS/n)
		vP95 += sq(st.p95S - a.p95S/n)
		vMiss += sq(st.missRate - a.miss/n)
		vUSD += sq(st.usdPerTask - a.usd/n)
		vEnergy += sq(st.energy - a.energy/n)
	}
	a.sdMeanS = math.Sqrt(vMean / (n - 1))
	a.sdP95S = math.Sqrt(vP95 / (n - 1))
	a.sdMiss = math.Sqrt(vMiss / (n - 1))
	a.sdUSD = math.Sqrt(vUSD / (n - 1))
	a.sdEnergy = math.Sqrt(vEnergy / (n - 1))
}

func sq(x float64) float64 { return x * x }

// runOneRep builds a fresh system on the derived seed and runs the
// scenario to completion.
func runOneRep(cfg core.Config, mix []workload.WeightedTemplate, rate float64, tasks int, seed uint64) (repStats, error) {
	cfg.Seed = seed
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return repStats{}, err
	}
	gen, err := workload.NewGenerator(sys.Src.Split(), mix)
	if err != nil {
		return repStats{}, err
	}
	sys.SubmitStream(workload.NewPoisson(sys.Src.Split(), rate), gen, tasks)
	sys.Run()
	st := sys.Stats()
	return repStats{
		seed:       seed,
		completed:  st.Completed,
		failed:     st.Failed,
		meanS:      st.MeanCompletion(),
		p95S:       st.P95Completion(),
		missRate:   st.MissRate(),
		usdPerTask: st.CostPerTask(),
		energy:     st.EnergyPerTaskMilliJ(),
	}, nil
}

func printSummary(sys *core.System, label string, tasks int, rate float64) {
	st := sys.Stats()
	summary := metrics.NewTable(fmt.Sprintf("offsim: %s, %d tasks at %g/s", label, tasks, rate),
		"metric", "value")
	summary.AddRowf("completed", fmt.Sprintf("%d", st.Completed))
	summary.AddRowf("failed", fmt.Sprintf("%d", st.Failed))
	summary.AddRowf("mean completion (s)", st.MeanCompletion())
	summary.AddRowf("p95 completion (s)", st.P95Completion())
	summary.AddRowf("deadline misses", fmt.Sprintf("%d (%.1f%%)", st.Missed, 100*st.MissRate()))
	summary.AddRowf("marginal cost ($/task)", st.CostPerTask())
	summary.AddRowf("infrastructure cost ($)", sys.InfrastructureCostUSD())
	summary.AddRowf("device energy (mJ/task)", st.EnergyPerTaskMilliJ())
	summary.AddRowf("virtual time (s)", float64(sys.Eng.Now()))
	summary.AddRowf("events fired", fmt.Sprintf("%d", sys.Eng.Fired()))
	fmt.Println(summary.String())

	placements := metrics.NewTable("placements", "placement", "tasks")
	for _, p := range model.AllPlacements() {
		if n := st.ByPlacement[p]; n > 0 {
			placements.AddRow(p.String(), fmt.Sprintf("%d", n))
		}
	}
	fmt.Println(placements.String())

	if p := sys.Platform(); p != nil && p.Stats().Invocations > 0 {
		ps := p.Stats()
		faas := metrics.NewTable("serverless platform", "metric", "value")
		faas.AddRowf("invocations", fmt.Sprintf("%d", ps.Invocations))
		faas.AddRowf("cold starts", fmt.Sprintf("%d (%.1f%%)", ps.ColdStarts,
			100*float64(ps.ColdStarts)/float64(ps.Invocations)))
		faas.AddRowf("billed ($)", ps.BilledUSD)
		fmt.Println(faas.String())
	}
}

func writeTrace(sys *core.System, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := sys.Recorder.WriteJSONL(f); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %d trace records to %s\n", sys.Recorder.Len(), path)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "offsim: %v\n", err)
	os.Exit(1)
}
