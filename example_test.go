package offload_test

import (
	"fmt"

	"offload"
)

// ExamplePlanApp shows the offline journey: profile an application,
// partition it with the min-cut, and size one serverless function per
// offloaded component.
func ExamplePlanApp() {
	plan, err := offload.PlanApp(offload.SciBatch(), offload.PlanOptions{
		Device:       offload.Smartphone(),
		Serverless:   offload.LambdaLike(),
		CloudPath:    offload.WiFiCloud(),
		Seed:         7,
		ProfileNoise: 0.01,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("offloaded:", plan.Remote)
	// Output:
	// offloaded: [simulate analyze visualize]
}

// ExampleNewSystem runs a small end-to-end simulation under the
// deadline-aware policy.
func ExampleNewSystem() {
	cfg := offload.DefaultConfig()
	cfg.Seed = 1
	sys, err := offload.NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	gen, err := offload.StandardMix(sys.Src.Split())
	if err != nil {
		panic(err)
	}
	sys.SubmitStream(offload.NewPoisson(sys.Src.Split(), 0.02), gen, 20)
	sys.Run()
	st := sys.Stats()
	fmt.Printf("completed %d tasks, %d deadline misses\n", st.Completed, st.Missed)
	// Output:
	// completed 20 tasks, 0 deadline misses
}

// ExampleSimulatePlan plans, deploys and executes an application as a
// partitioned DAG job.
func ExampleSimulatePlan() {
	plan, results, err := offload.SimulatePlan(offload.MLBatch(), offload.PlanOptions{
		Seed:         7,
		ProfileNoise: 0.01,
	}, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("offloaded:", plan.Remote)
	fmt.Println("runs executed:", len(results))
	fmt.Println("second run failed:", results[1].Failed)
	// Output:
	// offloaded: [inference postprocess]
	// runs executed: 2
	// second run failed: false
}

// ExampleRunDeployPipeline runs the offload-integrated CI/CD pipeline.
func ExampleRunDeployPipeline() {
	result, err := offload.RunDeployPipeline(offload.ReportGen(), offload.DeployOptions{
		Seed:              1,
		CanaryInvocations: 3,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("succeeded:", result.Report.Succeeded())
	fmt.Println("functions deployed:", len(result.Manifest.Functions))
	// Output:
	// succeeded: true
	// functions deployed: 2
}
