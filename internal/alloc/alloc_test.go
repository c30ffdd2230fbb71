package alloc

import (
	"math"
	"testing"
	"testing/quick"

	"offload/internal/model"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// platformConfig returns a platform with easy numbers: ladder 128 MB–4 GB
// in 128 MB steps, 1 GHz per vCPU at 1 GB, deterministic 0.5 s cold start.
func platformConfig() serverless.Config {
	return serverless.Config{
		Name:              "alloc-test",
		MinMemory:         128 * model.MB,
		MaxMemory:         4096 * model.MB,
		MemoryStep:        128 * model.MB,
		BaselineHz:        1e9,
		FullShareBytes:    1024 * model.MB,
		MaxShare:          4,
		ColdStart:         serverless.ColdStartModel{MedianSec: 0.5, Sigma: 0},
		KeepAlive:         420,
		ConcurrencyLimit:  100,
		PressureKneeRatio: 2.0,
		PressurePenalty:   1.5,
		Price: serverless.PriceTable{
			PerRequestUSD:  2e-7,
			PerGBSecondUSD: 1.6667e-5,
			Granularity:    0.001,
			MinBilled:      0.001,
		},
	}
}

func TestRequestValidate(t *testing.T) {
	bad := []Request{
		{Cycles: -1},
		{ParallelFraction: -0.1},
		{ParallelFraction: 1.1},
		{MemoryFloorBytes: -1},
		{TimeBudget: -1},
		{ColdStartProb: -0.1},
		{ColdStartProb: 1.1},
		// NaN passes every range comparison; infinities are not demands.
		{Cycles: math.NaN()},
		{Cycles: math.Inf(1)},
		{ParallelFraction: math.NaN()},
		{ColdStartProb: math.NaN()},
		{TimeBudget: sim.Duration(math.NaN())},
		{TimeBudget: sim.Duration(math.Inf(1))},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad request %d validated", i)
		}
	}
	if err := (Request{Cycles: 1e9}).Validate(); err != nil {
		t.Errorf("good request rejected: %v", err)
	}
}

func TestCostCurveIsUShapedAndChooseFindsMinimum(t *testing.T) {
	a := New(platformConfig())
	// A 512 MB working set: memory pressure inflates billed time at the
	// low end, wasted GB-seconds dominate at the high end.
	req := Request{Cycles: 10e9, MemoryFloorBytes: 512 * model.MB}
	sweep, err := a.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	var feasible []Decision
	for _, d := range sweep {
		if d.MemoryBytes >= req.MemoryFloorBytes {
			feasible = append(feasible, d)
		}
	}
	first, last := feasible[0], feasible[len(feasible)-1]
	best := feasible[0]
	for _, d := range feasible {
		if d.ExpectedCostUSD < best.ExpectedCostUSD {
			best = d
		}
	}
	if !(best.ExpectedCostUSD < first.ExpectedCostUSD) {
		t.Fatalf("interior optimum (%g at %d MB) not below smallest memory (%g)",
			best.ExpectedCostUSD, best.MemoryBytes/model.MB, first.ExpectedCostUSD)
	}
	if !(best.ExpectedCostUSD < last.ExpectedCostUSD) {
		t.Fatalf("interior optimum (%g) not below largest memory (%g)",
			best.ExpectedCostUSD, last.ExpectedCostUSD)
	}
	choice, err := a.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	if choice.MemoryBytes != best.MemoryBytes {
		t.Fatalf("Choose picked %d MB, sweep optimum is %d MB",
			choice.MemoryBytes/model.MB, best.MemoryBytes/model.MB)
	}
}

func TestChooseRespectsMemoryFloor(t *testing.T) {
	a := New(platformConfig())
	req := Request{Cycles: 1e9, MemoryFloorBytes: 2048 * model.MB}
	d, err := a.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.MemoryBytes < 2048*model.MB {
		t.Fatalf("Choose ignored memory floor: %d MB", d.MemoryBytes/model.MB)
	}
}

func TestChooseRespectsTimeBudget(t *testing.T) {
	a := New(platformConfig())
	// 10 s serial at 1 vCPU: at 128 MB it takes 80 s. Budget of 15 s
	// requires at least 683 MB.
	req := Request{Cycles: 10e9, TimeBudget: 15}
	d, err := a.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible {
		t.Fatal("feasible budget reported infeasible")
	}
	if d.ExpectedTime > 15 {
		t.Fatalf("ExpectedTime %v exceeds budget", d.ExpectedTime)
	}
}

func TestChooseInfeasibleBudgetReturnsFastest(t *testing.T) {
	a := New(platformConfig())
	// Serial 100 s task can't beat 5 s at any memory.
	req := Request{Cycles: 100e9, TimeBudget: 5}
	d, err := a.Choose(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Feasible {
		t.Fatal("impossible budget reported feasible")
	}
	sweep, err := a.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	fastest := sim.Duration(math.Inf(1))
	for _, s := range sweep {
		if s.MemoryBytes >= req.MemoryFloorBytes && s.ExpectedTime < fastest {
			fastest = s.ExpectedTime
		}
	}
	if d.ExpectedTime != fastest {
		t.Fatalf("fallback time = %v, fastest memory-feasible rung takes %v", d.ExpectedTime, fastest)
	}
}

func TestChooseErrorsWhenFloorExceedsPlatform(t *testing.T) {
	a := New(platformConfig())
	if _, err := a.Choose(Request{Cycles: 1, MemoryFloorBytes: 64 * model.GB}); err == nil {
		t.Fatal("oversized working set accepted")
	}
}

func TestColdStartProbRaisesTimeAndCost(t *testing.T) {
	a := New(platformConfig())
	base := a.Evaluate(Request{Cycles: 1e9}, 1024*model.MB)
	cold := a.Evaluate(Request{Cycles: 1e9, ColdStartProb: 1}, 1024*model.MB)
	if cold.ExpectedTime <= base.ExpectedTime {
		t.Fatal("cold-start probability did not raise expected time")
	}
	if cold.ExpectedCostUSD <= base.ExpectedCostUSD {
		t.Fatal("cold-start probability did not raise expected cost")
	}
	if math.Abs(float64(cold.ExpectedTime-base.ExpectedTime)-0.5) > 1e-9 {
		t.Fatalf("cold penalty = %v, want 0.5", cold.ExpectedTime-base.ExpectedTime)
	}
}

func TestParallelTaskMeetsDeadlineWithLargeMemory(t *testing.T) {
	a := New(platformConfig())
	// 40 s of serial work can never beat a 15 s budget; a 95%-parallel task
	// can, but only by buying >1 vCPU — i.e. more than full-share memory.
	serial := Request{Cycles: 40e9, TimeBudget: 15}
	parallel := Request{Cycles: 40e9, ParallelFraction: 0.95, TimeBudget: 15}
	ds, err := a.Choose(serial)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Feasible {
		t.Fatal("serial 40 s task reported feasible under a 15 s budget")
	}
	dp, err := a.Choose(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !dp.Feasible {
		t.Fatal("parallel task infeasible under a 15 s budget")
	}
	if dp.MemoryBytes <= 1024*model.MB {
		t.Fatalf("parallel task met the budget with %d MB, expected >1 vCPU worth",
			dp.MemoryBytes/model.MB)
	}
	if dp.ExpectedTime > 15 {
		t.Fatalf("chosen config misses budget: %v", dp.ExpectedTime)
	}
}

func TestEvaluateTimeMonotoneNonIncreasingInMemory(t *testing.T) {
	a := New(platformConfig())
	f := func(gcycles uint8, pf uint8) bool {
		req := Request{
			Cycles:           float64(gcycles%100+1) * 1e8,
			ParallelFraction: float64(pf%101) / 100,
		}
		prev := sim.Duration(math.Inf(1))
		for _, m := range platformConfig().MemoryLadder() {
			d := a.Evaluate(req, m)
			if d.ExpectedTime > prev+1e-12 {
				return false
			}
			prev = d.ExpectedTime
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestChooseAlwaysMatchesSweepArgmin(t *testing.T) {
	a := New(platformConfig())
	f := func(gcycles uint8, pf, floor uint8) bool {
		req := Request{
			Cycles:           float64(gcycles%200+1) * 2e8,
			ParallelFraction: float64(pf%101) / 100,
			MemoryFloorBytes: int64(floor%16) * 256 * model.MB,
		}
		choice, err := a.Choose(req)
		if err != nil {
			// Only legal when the floor exceeds the platform max (it never
			// does here: 15 × 256 MB < 4 GB max).
			return false
		}
		sweep, err := a.Sweep(req)
		if err != nil {
			return false
		}
		best := math.Inf(1)
		for _, d := range sweep {
			if d.MemoryBytes >= req.MemoryFloorBytes && d.ExpectedCostUSD < best {
				best = d.ExpectedCostUSD
			}
		}
		return math.Abs(choice.ExpectedCostUSD-best) < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestColdStartProbability(t *testing.T) {
	if got := ColdStartProbability(0, 100); got != 1 {
		t.Fatalf("zero rate probability = %g, want 1", got)
	}
	if got := ColdStartProbability(1, 0); got != 1 {
		t.Fatalf("zero keep-alive probability = %g, want 1", got)
	}
	got := ColdStartProbability(0.01, 420)
	want := math.Exp(-4.2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("probability = %g, want %g", got, want)
	}
	// Monotone: higher rate → fewer cold starts.
	if ColdStartProbability(1, 60) >= ColdStartProbability(0.001, 60) {
		t.Fatal("cold-start probability not decreasing in rate")
	}
}

func TestPlanBatchAmortisesColdStartAndRequests(t *testing.T) {
	a := New(platformConfig())
	req := Request{Cycles: 1e9, ColdStartProb: 1}
	plan, err := a.PlanBatch(req, 1024*model.MB, 10)
	if err != nil {
		t.Fatal(err)
	}
	single := a.Evaluate(req, 1024*model.MB)
	if plan.PerTaskCostUSD >= single.ExpectedCostUSD {
		t.Fatalf("batching did not save: %g >= %g", plan.PerTaskCostUSD, single.ExpectedCostUSD)
	}
	if plan.SavingsVsUnbatched <= 0 {
		t.Fatalf("SavingsVsUnbatched = %g", plan.SavingsVsUnbatched)
	}
	// Batch trades latency for money: per-task time grows.
	if plan.PerTaskTime <= single.ExpectedTime {
		t.Fatalf("batched per-task time %v not above single %v", plan.PerTaskTime, single.ExpectedTime)
	}
}

func TestPlanBatchValidation(t *testing.T) {
	a := New(platformConfig())
	if _, err := a.PlanBatch(Request{Cycles: 1}, 1024*model.MB, 0); err == nil {
		t.Fatal("batch size 0 accepted")
	}
	if _, err := a.PlanBatch(Request{Cycles: -1}, 1024*model.MB, 1); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestChoosePipelineUnbounded(t *testing.T) {
	a := New(platformConfig())
	reqs := []Request{{Cycles: 5e9}, {Cycles: 10e9}, {Cycles: 2e9}}
	pd, err := a.ChoosePipeline(reqs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !pd.Feasible || len(pd.Stages) != 3 {
		t.Fatalf("unbounded pipeline: %+v", pd)
	}
	// Must equal the sum of independent choices.
	sum := 0.0
	for _, r := range reqs {
		d, err := a.Choose(r)
		if err != nil {
			t.Fatal(err)
		}
		sum += d.ExpectedCostUSD
	}
	if math.Abs(pd.TotalCostUSD-sum) > 1e-12 {
		t.Fatalf("unbounded pipeline cost %g != sum of choices %g", pd.TotalCostUSD, sum)
	}
}

func TestChoosePipelineBudgetForcesFasterStages(t *testing.T) {
	a := New(platformConfig())
	reqs := []Request{{Cycles: 10e9}, {Cycles: 10e9}}
	loose, err := a.ChoosePipeline(reqs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := a.ChoosePipeline(reqs, 25, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !tight.Feasible {
		t.Fatalf("25 s budget infeasible: total %v", tight.TotalTime)
	}
	if tight.TotalTime > 25 {
		t.Fatalf("pipeline exceeded budget: %v", tight.TotalTime)
	}
	if tight.TotalCostUSD < loose.TotalCostUSD-1e-12 {
		t.Fatal("tight budget cheaper than unbounded optimum")
	}
}

func TestChoosePipelineInfeasibleBudget(t *testing.T) {
	a := New(platformConfig())
	reqs := []Request{{Cycles: 100e9}, {Cycles: 100e9}} // 100 s each at best
	pd, err := a.ChoosePipeline(reqs, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Feasible {
		t.Fatal("impossible pipeline budget reported feasible")
	}
	if len(pd.Stages) != 2 {
		t.Fatalf("fallback did not allocate all stages: %d", len(pd.Stages))
	}
}

func TestChoosePipelineRejectsStageBudgets(t *testing.T) {
	a := New(platformConfig())
	if _, err := a.ChoosePipeline([]Request{{Cycles: 1, TimeBudget: 5}}, 10, 100); err == nil {
		t.Fatal("stage-level budget accepted in pipeline mode")
	}
	if _, err := a.ChoosePipeline(nil, 0, 0); err == nil {
		t.Fatal("empty pipeline accepted")
	}
	if _, err := a.ChoosePipeline([]Request{{Cycles: 1}}, 10, 0); err == nil {
		t.Fatal("zero slots with budget accepted")
	}
}

func TestChoosePipelineMatchesBruteForceSmall(t *testing.T) {
	// Brute-force over a coarsened ladder to validate the DP.
	cfg := platformConfig()
	cfg.MemoryStep = 1024 * model.MB // ladder: 1152? No — min 128: 128, 1152, 2176, 3200, 4224>max → 4 sizes
	a := New(cfg)
	reqs := []Request{{Cycles: 8e9}, {Cycles: 4e9}}
	budget := sim.Duration(30)
	pd, err := a.ChoosePipeline(reqs, budget, 400)
	if err != nil {
		t.Fatal(err)
	}
	ladder := cfg.MemoryLadder()
	bestCost := math.Inf(1)
	for _, m1 := range ladder {
		for _, m2 := range ladder {
			d1 := a.Evaluate(reqs[0], m1)
			d2 := a.Evaluate(reqs[1], m2)
			if d1.ExpectedTime+d2.ExpectedTime <= budget {
				if c := d1.ExpectedCostUSD + d2.ExpectedCostUSD; c < bestCost {
					bestCost = c
				}
			}
		}
	}
	if !pd.Feasible {
		t.Fatal("DP found no feasible plan but brute force should")
	}
	// DP rounds times up to slots, so it may be slightly conservative, but
	// never better than brute force and within a small factor of it.
	if pd.TotalCostUSD < bestCost-1e-12 {
		t.Fatalf("DP cost %g beats brute force %g", pd.TotalCostUSD, bestCost)
	}
	if pd.TotalCostUSD > bestCost*1.25 {
		t.Fatalf("DP cost %g far above brute force %g", pd.TotalCostUSD, bestCost)
	}
}
