package exp

import (
	"fmt"

	"offload/internal/callgraph"
	"offload/internal/core"
	"offload/internal/dag"
	"offload/internal/device"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/partition"
	"offload/internal/serverless"
	"offload/internal/workload"
)

// E15Granularity reproduces the deployment-granularity ablation (Table 9):
// should the offloadable side of an application deploy as ONE aggregated
// function (what the online scheduler's function pool does) or as one
// function PER component (what the CI/CD manifest deploys)? Five
// sequential runs per variant, on a fresh platform each.
//
// Expected shape: per-component deployment right-sizes each stage's
// memory (cheaper GB-seconds for the light stages) but pays one cold
// start per function on the first run and a per-request charge per stage;
// the monolithic function amortises those but over-provisions memory for
// its lightest work. Neither dominates — the gap per run is small, which
// is itself the finding: granularity is an operational choice (rollback
// scope, canary precision), not a cost cliff.
func E15Granularity(s Scale) ([]*metrics.Table, error) {
	tbl := metrics.NewTable(
		"E15 (Tab 9): one aggregated function vs one function per component",
		"app", "deployment", "functions", "run_s", "run_usd", "run_mJ")
	const runs = 5
	for _, app := range []string{"ml-batch", "sci-batch", "report-gen"} {
		g := callgraph.Templates()[app]
		for _, v := range e15Variants(s.Seed) {
			job, placements, err := v.build(g)
			if err != nil {
				return nil, err
			}
			r, err := runGranularity(v.seed, job, placements, serverless.LambdaLike(), runs)
			if err != nil {
				return nil, err
			}
			tbl.AddRow(app, v.name, fmt.Sprintf("%d", r.functions),
				seconds(r.meanS), usd(r.meanUSD), fmtMilliJ(r.meanMJ))
		}
	}
	return []*metrics.Table{tbl}, nil
}

// e15Variant is one deployment granularity: how the app becomes a job,
// and the seed of its fresh rig.
type e15Variant struct {
	name  string
	build func(*callgraph.Graph) (*dag.Job, []model.Placement, error)
	seed  uint64
}

func e15Variants(seed uint64) []e15Variant {
	return []e15Variant{
		{"monolithic", monolithicJob, seed},
		{"per-component", perComponentJob, seed + 100},
	}
}

// perComponentJob is the app as the CI/CD manifest deploys it: every
// non-pinned component a node on its own function.
func perComponentJob(g *callgraph.Graph) (*dag.Job, []model.Placement, error) {
	return workload.JobFromPartition(g, partition.AllRemote(g))
}

// monolithicJob is the app as the aggregate task the function pool would
// build: one node, and so one function sized for the whole offloadable
// side.
func monolithicJob(g *callgraph.Graph) (*dag.Job, []model.Placement, error) {
	tmpl, err := workload.FromGraph(g)
	if err != nil {
		return nil, nil, err
	}
	job := dag.New(g.Name(), tmpl.Deadline)
	if _, err := job.AddNode(dag.Node{
		Name: "all", Cycles: tmpl.MeanCycles, MemoryBytes: tmpl.MemoryBytes,
		InputBytes: tmpl.InputBytes, OutputBytes: tmpl.OutputBytes,
		ParallelFraction: tmpl.ParallelFraction,
	}); err != nil {
		return nil, nil, err
	}
	return job, []model.Placement{model.PlaceFunction}, nil
}

type granResult struct {
	meanS, meanUSD, meanMJ float64
	functions              int
}

// runGranularity executes runs sequential runs of the job on a fresh rig
// whose pool sizes every remote node's function from its demand. A failed
// run fails the cell: its partial cost and time are no run's.
func runGranularity(seed uint64, job *dag.Job, placements []model.Placement, sl serverless.Config, runs int) (granResult, error) {
	results, err := core.JobRig{
		Device:       device.Smartphone(),
		CloudPath:    network.WiFiCloud(),
		Serverless:   sl,
		PathSeed:     seed + 1,
		PlatformSeed: seed + 2,
	}.Run(job, placements, runs)
	if err != nil {
		return granResult{}, err
	}
	var out granResult
	for _, p := range placements {
		if p == model.PlaceFunction {
			out.functions++
		}
	}
	for i, res := range results {
		if res.Failed {
			return granResult{}, fmt.Errorf("e15: %s run %d failed", job.App(), i)
		}
		out.meanS += res.MakespanS
		out.meanUSD += res.CostUSD
		out.meanMJ += res.EnergyMilliJ
	}
	out.meanS /= float64(runs)
	out.meanUSD /= float64(runs)
	out.meanMJ /= float64(runs)
	return out, nil
}
