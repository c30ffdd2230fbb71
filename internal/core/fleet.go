package core

import (
	"fmt"

	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/sched"
)

// FleetStats aggregates every scheduler's statistics.
type FleetStats struct {
	Completed uint64
	Failed    uint64
	Missed    uint64
	Retries   uint64

	MeanCompletion float64 // completion-weighted mean across devices
	CostUSD        float64
	EnergyMilliJ   float64

	// Spend sunk into tasks that ultimately failed; CostUSD above covers
	// completed tasks only (see sched.Stats).
	FailedCostUSD      float64
	FailedEnergyMilliJ float64

	// Completion is the fleet-wide completion-time distribution, merged
	// from every device's histogram without shared state, so quantiles
	// (P95Completion) are available at fleet scope too.
	Completion *metrics.Histogram

	ByPlacement map[model.Placement]uint64
}

// aggregateStats merges per-scheduler statistics in slice (UE) order, so
// the aggregate is deterministic for a given configuration whatever the
// shard count.
func aggregateStats(scheds []*sched.Scheduler) FleetStats {
	out := FleetStats{
		ByPlacement: make(map[model.Placement]uint64),
		Completion:  metrics.NewLatencyHistogram(),
	}
	var meanSum float64
	for _, s := range scheds {
		st := s.Stats()
		out.Completed += st.Completed
		out.Failed += st.Failed
		out.Missed += st.Missed
		out.Retries += st.Retries
		out.CostUSD += st.CostUSD
		out.EnergyMilliJ += st.EnergyMilliJ
		out.FailedCostUSD += st.FailedCostUSD
		out.FailedEnergyMilliJ += st.FailedEnergyMilliJ
		if err := out.Completion.Merge(st.Completion); err != nil {
			panic(err) // all schedulers use NewLatencyHistogram; cannot happen
		}
		meanSum += st.MeanCompletion() * float64(st.Completed)
		for p, n := range st.ByPlacement {
			out.ByPlacement[p] += n
		}
	}
	if out.Completed > 0 {
		out.MeanCompletion = meanSum / float64(out.Completed)
	}
	return out
}

// TotalCostUSD returns per-task spend across the fleet, completed and
// failed tasks alike.
func (s FleetStats) TotalCostUSD() float64 { return s.CostUSD + s.FailedCostUSD }

// P95Completion returns the fleet-wide 95th-percentile completion time in
// seconds, from the merged per-device histograms.
func (s FleetStats) P95Completion() float64 { return s.Completion.Quantile(0.95) }

// MissRate returns the fleet-wide deadline-miss fraction.
func (s FleetStats) MissRate() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.Missed) / float64(s.Completed)
}

// Table renders the fleet aggregate for terminal output.
func (s FleetStats) Table() *metrics.Table {
	t := metrics.NewTable("fleet aggregate", "metric", "value")
	t.AddRowf("completed", fmt.Sprintf("%d", s.Completed))
	t.AddRowf("failed", fmt.Sprintf("%d", s.Failed))
	t.AddRowf("mean completion (s)", s.MeanCompletion)
	t.AddRowf("miss rate", fmt.Sprintf("%.2f%%", 100*s.MissRate()))
	t.AddRowf("cost ($)", s.CostUSD)
	t.AddRowf("energy (mJ)", s.EnergyMilliJ)
	return t
}
