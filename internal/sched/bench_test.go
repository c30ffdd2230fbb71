package sched

import (
	"testing"

	"offload/internal/cloudvm"
	"offload/internal/device"
	"offload/internal/edge"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// BenchmarkDecideDeadlineAware measures the cost-model policy's Decide on
// the calibrated substrates: four placement estimates per call, one of
// them an allocator pass over the Lambda ladder.
func BenchmarkDecideDeadlineAware(b *testing.B) {
	eng := sim.NewEngine()
	src := rng.New(42)
	env := &Env{
		Eng:       eng,
		Device:    device.New(eng, device.Smartphone()),
		Edge:      edge.New(eng, edge.SmallSite()),
		EdgePath:  network.New(eng, src.Split(), network.LANEdge()),
		Functions: NewFunctionPool(serverless.NewPlatform(eng, src.Split(), serverless.LambdaLike())),
		CloudPath: network.New(eng, src.Split(), network.WiFiCloud()),
		VM:        cloudvm.New(eng, cloudvm.C5Large()),
	}
	p := NewDeadlineAware()
	pred := NewPerApp(0.3)
	task := heavyTask(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task.ID = model.TaskID(i)
		if got := p.Decide(task, env, pred); got == model.PlaceUnknown {
			b.Fatal("no placement")
		}
	}
}
