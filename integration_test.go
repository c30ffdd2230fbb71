package offload_test

// Cross-package integration tests: each exercises a journey that spans
// several subsystems end to end, through the public façade plus the
// internal packages the façade composes.

import (
	"bytes"
	"math"
	"os"
	"testing"

	"offload"
	"offload/internal/callgraph"
	"offload/internal/core"
	"offload/internal/device"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/serverless"
	"offload/internal/sim"
	"offload/internal/trace"
	"offload/internal/workload"
)

// TestPlanMatchesDeployedReality deploys a plan's manifest onto a real
// (simulated) platform and checks that the measured per-run bill lands
// near the allocator's estimate — the offline and online halves of the
// framework must agree.
func TestPlanMatchesDeployedReality(t *testing.T) {
	g := callgraph.SciBatch()
	plan, err := core.PlanApp(g, core.PlanOptions{
		Device:       device.Smartphone(),
		Serverless:   serverless.LambdaLike(),
		CloudPath:    network.WiFiCloud(),
		Seed:         11,
		ProfileNoise: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}

	eng := sim.NewEngine()
	cfg := serverless.LambdaLike()
	cfg.ColdStart = serverless.ColdStartModel{} // estimate assumes cold prob 1; drop the term on both sides
	platform := serverless.NewPlatform(eng, rng.New(12), cfg)
	for _, fn := range plan.Manifest.Functions {
		if _, err := platform.Deploy(serverless.FunctionConfig{
			Name: fn.Name, MemoryBytes: fn.MemoryBytes,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One application run: invoke each offloaded component once with its
	// true demand.
	total := 0.0
	for _, spec := range plan.Manifest.Functions {
		id, ok := g.Lookup(spec.Component)
		if !ok {
			t.Fatalf("component %s missing from graph", spec.Component)
		}
		comp := g.Component(id)
		fn := platform.Function(spec.Name)
		fn.Execute(&model.Task{
			Cycles:           comp.Cycles,
			MemoryBytes:      comp.MemoryBytes,
			ParallelFraction: comp.ParallelFraction,
		}, func(rep model.ExecReport) {
			if rep.Err != nil {
				t.Errorf("%s failed: %v", spec.Name, rep.Err)
			}
			total += rep.CostUSD
		})
		eng.Run()
	}
	// The plan's estimate includes an expected cold start; the measured run
	// had none, so allow a modest band rather than exact equality.
	if total > plan.EstimatedCostPerRunUSD*1.2 || total < plan.EstimatedCostPerRunUSD*0.5 {
		t.Fatalf("measured per-run bill $%g far from plan estimate $%g",
			total, plan.EstimatedCostPerRunUSD)
	}
}

// TestTraceRoundTripMatchesStats records a run, serialises it, reads it
// back and checks the records sum to the scheduler's own statistics.
func TestTraceRoundTripMatchesStats(t *testing.T) {
	sys, err := offload.NewSystem(offload.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableRecords()
	gen, err := offload.StandardMix(sys.Src.Split())
	if err != nil {
		t.Fatal(err)
	}
	sys.SubmitStream(offload.NewPoisson(sys.Src.Split(), 0.05), gen, 40)
	sys.Run()

	var buf bytes.Buffer
	if err := sys.Recorder.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var missed, completed int
	var costUSD, completionS float64
	for _, r := range records {
		costUSD += r.CostUSD
		if r.Failed {
			continue
		}
		completed++
		completionS += r.CompletionS()
		if r.Missed {
			missed++
		}
	}
	st := sys.Stats()
	if uint64(len(records)) != st.Total() {
		t.Fatalf("trace has %d tasks, stats %d", len(records), st.Total())
	}
	if uint64(missed) != st.Missed {
		t.Fatalf("trace misses %d, stats %d", missed, st.Missed)
	}
	if math.Abs(costUSD-st.CostUSD) > 1e-12 {
		t.Fatalf("trace cost $%g, stats $%g", costUSD, st.CostUSD)
	}
	if completed == 0 {
		t.Fatal("trace has no completed tasks")
	}
	if mean := completionS / float64(completed); math.Abs(mean-st.MeanCompletion()) > 1e-9 {
		t.Fatalf("trace mean %g, stats %g", mean, st.MeanCompletion())
	}
}

// TestTraceReplayReproducesWorkload replays a recorded run into a fresh
// identical system and expects identical aggregate results — the
// determinism guarantee, end to end.
func TestTraceReplayReproducesWorkload(t *testing.T) {
	build := func() *core.System {
		cfg := offload.DefaultConfig()
		cfg.Policy = offload.PolicyCloudAll
		cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	first := build()
	first.EnableRecords()
	gen, err := workload.StandardMix(first.Src.Split())
	if err != nil {
		t.Fatal(err)
	}
	first.SubmitStream(workload.NewPoisson(first.Src.Split(), 0.05), gen, 30)
	first.Run()

	second := build()
	if err := trace.Replay(second.Eng, first.Recorder.Records(), second.Submit); err != nil {
		t.Fatal(err)
	}
	second.Run()

	a, b := first.Stats(), second.Stats()
	if a.Total() != b.Total() {
		t.Fatalf("replay completed %d tasks, original %d", b.Total(), a.Total())
	}
	if math.Abs(a.MeanCompletion()-b.MeanCompletion()) > 1e-9 {
		t.Fatalf("replay mean %g, original %g", b.MeanCompletion(), a.MeanCompletion())
	}
	if math.Abs(a.CostUSD-b.CostUSD) > 1e-12 {
		t.Fatalf("replay cost %g, original %g", b.CostUSD, a.CostUSD)
	}
}

// TestShippedSpecParsesAndPlans keeps the example spec in specs/ honest:
// it must parse and yield a non-trivial plan.
func TestShippedSpecParsesAndPlans(t *testing.T) {
	data, err := os.ReadFile("specs/photo-backup.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := offload.ParseGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "photo-backup" || g.Len() != 5 {
		t.Fatalf("spec shape: %s with %d components", g.Name(), g.Len())
	}
	plan, err := offload.PlanApp(g, offload.PlanOptions{
		Device:     offload.Smartphone(),
		Serverless: offload.LambdaLike(),
		CloudPath:  offload.WiFiCloud(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Remote) == 0 {
		t.Fatal("shipped spec plans to offload nothing")
	}
}

// TestPipelineThenServeTraffic runs the CI/CD pipeline and then serves
// live traffic against the functions it deployed, on the same platform —
// the full deployment-process integration the abstract promises.
func TestPipelineThenServeTraffic(t *testing.T) {
	result, err := offload.RunDeployPipeline(offload.ReportGen(), offload.DeployOptions{
		Seed:              3,
		CanaryInvocations: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !result.Report.Succeeded() || result.Manifest == nil {
		t.Fatalf("pipeline failed: %+v", result.Report.Results)
	}
	if len(result.Manifest.Functions) == 0 {
		t.Fatal("nothing deployed")
	}
	// The manifest is the contract: a fresh platform provisioned from it
	// must serve the offloaded components.
	eng := sim.NewEngine()
	platform := serverless.NewPlatform(eng, rng.New(4), serverless.LambdaLike())
	g := offload.ReportGen()
	for _, spec := range result.Manifest.Functions {
		fn, err := platform.Deploy(serverless.FunctionConfig{
			Name: spec.Name, MemoryBytes: spec.MemoryBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		id, _ := g.Lookup(spec.Component)
		comp := g.Component(id)
		fn.Execute(&model.Task{
			Cycles: comp.Cycles, MemoryBytes: comp.MemoryBytes,
			ParallelFraction: comp.ParallelFraction,
		}, func(rep model.ExecReport) {
			if rep.Err != nil {
				t.Errorf("deployed function %s cannot serve its component: %v", spec.Name, rep.Err)
			}
		})
	}
	eng.Run()
	if platform.Stats().Errors != 0 {
		t.Fatalf("serving errors: %d", platform.Stats().Errors)
	}
}
