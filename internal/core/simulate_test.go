package core

import (
	"errors"
	"math"
	"testing"

	"offload/internal/callgraph"
	"offload/internal/dag"
	"offload/internal/device"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/partition"
	"offload/internal/serverless"
	"offload/internal/workload"
)

// pipeGraph: ui(pinned) → a → b → ui, with a and b offloadable.
func pipeGraph(aMem int64) *callgraph.Graph {
	g := callgraph.New("pipe")
	g.MustAddComponent(callgraph.Component{Name: "ui", Cycles: 1e8, Pinned: true})
	g.MustAddComponent(callgraph.Component{Name: "a", Cycles: 2e9, MemoryBytes: aMem})
	g.MustAddComponent(callgraph.Component{Name: "b", Cycles: 4e9})
	g.MustAddEdge(callgraph.Edge{From: 0, To: 1, Bytes: 1 << 20})
	g.MustAddEdge(callgraph.Edge{From: 1, To: 2, Bytes: 1 << 18})
	g.MustAddEdge(callgraph.Edge{From: 2, To: 0, Bytes: 1 << 16})
	return g
}

func testRig() JobRig {
	return JobRig{
		Device: device.Config{
			Name: "ue", CPUHz: 1e9, Cores: 2,
			ActivePowerW: 2, TxPowerW: 1, RxPowerW: 0.5,
		},
		CloudPath: network.Config{
			Name: "wan", OneWayDelay: 0.01, UplinkBps: 8e6, DownlinkBps: 16e6, Serialize: true,
		},
		Serverless:   serverless.LambdaLike(),
		PathSeed:     1,
		PlatformSeed: 2,
	}
}

func runPipe(t *testing.T, rig JobRig, g *callgraph.Graph, a partition.Assignment) dag.Result {
	t.Helper()
	job, placements, err := workload.JobFromPartition(g, a)
	if err != nil {
		t.Fatal(err)
	}
	results, err := rig.Run(job, placements, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("%d results for one run", len(results))
	}
	return results[0]
}

func TestJobRigAllLocalRunsOnDevice(t *testing.T) {
	g := pipeGraph(0)
	res := runPipe(t, testRig(), g, partition.AllLocal(g))
	if res.Failed {
		t.Fatal("run failed")
	}
	// 2 + 4 s of compute at 1 GHz; the pinned anchor is not a job node.
	if math.Abs(res.MakespanS-6) > 1e-9 {
		t.Fatalf("makespan %v, want 6", res.MakespanS)
	}
	if res.CostUSD != 0 {
		t.Fatalf("all-local run billed $%g", res.CostUSD)
	}
	for id, o := range res.NodeOutcomes {
		if o.Placement != model.PlaceLocal || o.UplinkTime != 0 || o.DownlinkTime != 0 {
			t.Fatalf("node %d: %v with %v up, %v down", id, o.Placement, o.UplinkTime, o.DownlinkTime)
		}
	}
	// 6 s × 2 W = 12 J.
	if math.Abs(res.EnergyMilliJ-12000) > 1e-6 {
		t.Fatalf("EnergyMilliJ = %g", res.EnergyMilliJ)
	}
}

func TestJobRigRunsAtFixedSizes(t *testing.T) {
	// a needs 1 GB but is pinned to a 128 MB function: it runs out of
	// memory, and b never executes.
	g := pipeGraph(1 << 30)
	rig := testRig()
	rig.Memory = map[string]int64{"a": 128 * model.MB}
	res := runPipe(t, rig, g, partition.Assignment{false, true, true})
	if !res.Failed || !errors.Is(res.NodeOutcomes[0].Exec.Err, serverless.ErrOutOfMemory) {
		t.Fatalf("undersized function did not OOM: %+v", res.NodeOutcomes[0])
	}
	if res.NodeOutcomes[1].Task != nil {
		t.Fatal("node after the failure still executed")
	}
	// Without the fixed size the pool sizes a for its working set.
	rig.Memory = nil
	if res := runPipe(t, rig, g, partition.Assignment{false, true, true}); res.Failed {
		t.Fatal("pool-sized run failed")
	}

	job, placements, err := workload.JobFromPartition(g, partition.AllRemote(g))
	if err != nil {
		t.Fatal(err)
	}
	rig.Memory = map[string]int64{"ui": 128 * model.MB}
	if _, err := rig.Run(job, placements, 1); err == nil {
		t.Fatal("size for a node the job lacks accepted")
	}
}

func TestSimulatePlanPaysCutEdgesAndBills(t *testing.T) {
	g := callgraph.MLBatch()
	plan, results, err := SimulatePlan(g, PlanOptions{Seed: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(plan.Remote) == 0 {
		t.Fatalf("%d runs, offloaded %v", len(results), plan.Remote)
	}
	a := plan.Partition.Assignment
	remote := map[string]bool{}
	for _, name := range plan.Remote {
		remote[name] = true
	}
	// The bytes each component sends to and receives from the other side.
	cutIn, cutOut := map[string]int64{}, map[string]int64{}
	for _, e := range g.Edges() {
		if a[e.From] != a[e.To] {
			bytes := int64(float64(e.Bytes) * e.CallsPerRun)
			cutOut[g.Component(e.From).Name] += bytes
			cutIn[g.Component(e.To).Name] += bytes
		}
	}
	for _, res := range results {
		if res.Failed {
			t.Fatal("run failed")
		}
		sum := 0.0
		for id, o := range res.NodeOutcomes {
			name := res.Job.Node(dag.NodeID(id)).Name
			sum += o.CostUSD
			if !remote[name] {
				if o.Placement != model.PlaceLocal || o.CostUSD != 0 || o.UplinkTime != 0 || o.DownlinkTime != 0 {
					t.Errorf("local %s: %v, $%g, %v up, %v down",
						name, o.Placement, o.CostUSD, o.UplinkTime, o.DownlinkTime)
				}
				continue
			}
			if o.Placement != model.PlaceFunction || o.CostUSD <= 0 {
				t.Errorf("remote %s: %v, $%g", name, o.Placement, o.CostUSD)
			}
			// A cut edge rides exactly one leg: up into its remote consumer
			// or down from its remote producer.
			if o.Task.InputBytes != cutIn[name] || o.Task.OutputBytes != cutOut[name] {
				t.Errorf("remote %s moves %d up, %d down; cut edges carry %d, %d",
					name, o.Task.InputBytes, o.Task.OutputBytes, cutIn[name], cutOut[name])
			}
		}
		if math.Abs(sum-res.CostUSD) > 1e-15 {
			t.Errorf("run billed $%g, nodes $%g", res.CostUSD, sum)
		}
	}
}

func TestSimulatePlanRunsEveryTemplate(t *testing.T) {
	for _, name := range callgraph.TemplateNames() {
		t.Run(name, func(t *testing.T) {
			g := callgraph.Templates()[name]
			_, results, err := SimulatePlan(g, PlanOptions{Seed: 1}, 1)
			if err != nil {
				t.Fatal(err)
			}
			res := results[0]
			if res.Failed {
				t.Fatalf("template run failed: %+v", res)
			}
			pinned := 0
			for _, c := range g.Components() {
				if c.Pinned {
					pinned++
				}
			}
			if len(res.NodeOutcomes) != g.Len()-pinned {
				t.Fatalf("executed %d of %d offloadable components", len(res.NodeOutcomes), g.Len()-pinned)
			}
		})
	}
}
