package core

import (
	"fmt"

	"offload/internal/callgraph"
	"offload/internal/dag"
	"offload/internal/device"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/serverless"
	"offload/internal/sim"
	"offload/internal/workload"
)

// JobRig is the runtime a partitioned application executes on: one
// device, one cloud path and one serverless function pool behind one
// sched.Scheduler, with a dag.Orchestrator dispatching every node at its
// planned placement. SimulatePlan and experiment E15 both run on it.
type JobRig struct {
	Device     device.Config
	CloudPath  network.Config
	Serverless serverless.Config

	// PathSeed and PlatformSeed seed the cloud path's and the serverless
	// platform's random streams.
	PathSeed, PlatformSeed uint64

	// Memory fixes the function size of the named nodes, as a deployment
	// manifest does. The pool's allocator sizes every other remote node
	// from its demand.
	Memory map[string]int64
}

// Run executes runs back-to-back runs of job on a fresh rig, node i at
// placements[i], each run submitted when the previous one settles. It
// returns every run's result in order, failed runs included.
func (r JobRig) Run(job *dag.Job, placements []model.Placement, runs int) ([]dag.Result, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("core: %s: %d runs", job.App(), runs)
	}
	eng := sim.NewEngine()
	pool := sched.NewFunctionPool(serverless.NewPlatform(eng, rng.New(r.PlatformSeed), r.Serverless))
	sized := 0
	for id := 0; id < job.Len(); id++ {
		if mem, ok := r.Memory[job.Node(dag.NodeID(id)).Name]; ok {
			if err := pool.Deploy(job.TaskApp(dag.NodeID(id)), mem); err != nil {
				return nil, err
			}
			sized++
		}
	}
	if sized != len(r.Memory) {
		return nil, fmt.Errorf("core: %s: memory sizes name nodes the job lacks", job.App())
	}
	env := &sched.Env{
		Eng:       eng,
		Device:    device.New(eng, r.Device),
		Functions: pool,
		CloudPath: network.New(eng, rng.New(r.PathSeed), r.CloudPath),
	}
	// Every node carries a placement, so the policy is never consulted.
	s, err := sched.New(env, sched.LocalOnly{}, nil)
	if err != nil {
		return nil, err
	}
	orch := dag.NewOrchestrator(s, dag.Fixed(placements))
	results := make([]dag.Result, 0, runs)
	var submitErr error
	orch.OnJobDone(func(res dag.Result) {
		results = append(results, res)
		if len(results) < runs {
			submitErr = orch.Submit(job)
		}
	})
	if err := orch.Submit(job); err != nil {
		return nil, err
	}
	eng.Run()
	return results, submitErr
}

// SimulatePlan runs the full offline-to-runtime journey: plan the
// application (profile → partition → allocate), deploy the manifest onto
// a fresh JobRig, and execute runs application runs as DAG jobs whose
// offloaded nodes run on the manifest's functions. It returns the plan
// and the per-run results.
func SimulatePlan(g *callgraph.Graph, opts PlanOptions, runs int) (*Plan, []dag.Result, error) {
	if runs <= 0 {
		runs = 1
	}
	if opts.Device.CPUHz == 0 {
		opts.Device = device.Smartphone()
	}
	if opts.Serverless.BaselineHz == 0 {
		opts.Serverless = serverless.LambdaLike()
	}
	if opts.CloudPath.UplinkBps == 0 {
		opts.CloudPath = network.WiFiCloud()
	}
	plan, err := PlanApp(g, opts)
	if err != nil {
		return nil, nil, err
	}
	job, placements, err := workload.JobFromPartition(g, plan.Partition.Assignment)
	if err != nil {
		return nil, nil, err
	}
	memory := make(map[string]int64, len(plan.Manifest.Functions))
	for _, spec := range plan.Manifest.Functions {
		memory[spec.Component] = spec.MemoryBytes
	}
	results, err := JobRig{
		Device:       opts.Device,
		CloudPath:    opts.CloudPath,
		Serverless:   opts.Serverless,
		PathSeed:     opts.Seed + 5,
		PlatformSeed: opts.Seed + 6,
		Memory:       memory,
	}.Run(job, placements, runs)
	if err != nil {
		return nil, nil, err
	}
	return plan, results, nil
}
