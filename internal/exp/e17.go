package exp

import (
	"fmt"

	"offload/internal/core"
	"offload/internal/fault"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/sched"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// e17Rate is the arrival rate for the resilience study. It is an order of
// magnitude denser than e1Rate so that even the shortest outage burst
// covers several arrivals and the failure statistics resolve the bursts.
const e17Rate = 0.2

// e17OutageStart leaves a short healthy warm-up before the burst begins.
const e17OutageStart sim.Time = 20

// E17Resilience studies correlated cloud outages — the robustness case
// i.i.d. failure injection (E12) cannot express. A scheduled outage of
// varying length hits the serverless region while the cloud-all policy
// keeps submitting; four client-side strategies face it:
//
//   - fail-fast:    no retries — every invocation lost to the outage fails;
//   - retry-only:   exponential backoff with full jitter (≈62 s horizon);
//   - brk+fallback: retries plus a circuit breaker that reroutes to local
//     execution while open, re-probing the cloud every cooldown;
//   - hedged:       retries plus per-attempt timeouts and a duplicate
//     attempt once the primary looks slow (a straggler-tail hedge).
//
// A light straggler model (5% of invocations 4× slower, Pareto tail) runs
// alongside the outage so the hedged strategy has a tail to cut.
//
// Expected shape: fail-fast loses roughly the fraction of tasks that
// arrive inside the burst. Retry-only absorbs bursts shorter than its
// backoff horizon but degrades sharply at 240 s. Breaker+fallback keeps
// the failure rate at zero for every burst length by buying local
// completions (visible as fallbacks and higher energy), and recovers
// within one cooldown of the outage clearing. Hedging pays a small cost
// premium (wasted duplicates) for a tighter tail. Failed attempts are
// billed by the platform, so resilience shows up as money too.
func E17Resilience(s Scale) ([]*metrics.Table, error) {
	mix, err := templateMix("report-gen")
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(
		"E17: resilience strategies under correlated cloud outages",
		"burst_s", "strategy", "task_fail", "p95_s", "task_usd",
		"task_mJ", "fallbacks", "hedges", "recovery_s")

	retry := func(cfg *core.Config) {
		cfg.Retries = 6
		cfg.RetryBackoff = 2
		cfg.RetryMaxBackoff = 60
		cfg.RetryJitter = true
	}
	strategies := []struct {
		name  string
		apply func(*core.Config)
	}{
		{"fail-fast", func(cfg *core.Config) {}},
		{"retry-only", retry},
		{"brk+fallback", func(cfg *core.Config) {
			retry(cfg)
			cfg.Resilience = &sched.Resilience{
				Breaker:  &sched.BreakerConfig{FailureThreshold: 5, OpenFor: 20, HalfOpenSuccesses: 1},
				Fallback: model.PlaceLocal,
			}
		}},
		{"hedged", func(cfg *core.Config) {
			retry(cfg)
			cfg.Resilience = &sched.Resilience{
				AttemptTimeout: 120,
				HedgeDelay:     20, HedgeQuantile: 0.95, MaxHedges: 1,
			}
		}},
	}

	for _, burst := range []sim.Duration{15, 60, 240} {
		for _, strat := range strategies {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Policy = core.PolicyCloudAll
			cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
			sl := serverless.LambdaLike()
			cfg.Serverless = &sl
			cfg.ArrivalRateHint = e17Rate
			cfg.Fault = &fault.Config{
				Outages:       []fault.Window{{Start: e17OutageStart, Duration: burst}},
				StragglerProb: 0.05, StragglerFactor: 4, StragglerAlpha: 1.5,
			}
			strat.apply(&cfg)
			sys, err := core.NewSystem(cfg)
			if err != nil {
				return nil, err
			}
			sys.EnableRecords() // recoverySeconds reads the task records
			res, err := driveCell(s, sys, mix, e17Rate, 0)
			if err != nil {
				return nil, err
			}
			st := res.stats
			tbl.AddRow(
				fmt.Sprintf("%g", float64(burst)),
				strat.name,
				pct(float64(st.Failed)/float64(st.Total())),
				seconds(st.P95Completion()),
				usd(st.CostPerTask()),
				fmtMilliJ(st.EnergyPerTaskMilliJ()),
				fmt.Sprintf("%d", st.Fallbacks),
				fmt.Sprintf("%d", st.Hedges),
				recoverySeconds(res, e17OutageStart.Add(burst)),
			)
		}
	}
	return []*metrics.Table{tbl}, nil
}

// recoverySeconds measures how long after the outage cleared the cloud
// path carried its first successful completion again — the recovery lag a
// breaker's probing cadence adds. "-" means the run ended first (e.g. the
// burst outlived the workload at quick scale).
func recoverySeconds(res runResult, outEnd sim.Time) string {
	best := -1.0
	for _, r := range res.system.Recorder.Records() {
		if r.Failed || r.Placement != model.PlaceFunction.String() || r.Finished < float64(outEnd) {
			continue
		}
		if lag := r.Finished - float64(outEnd); best < 0 || lag < best {
			best = lag
		}
	}
	if best < 0 {
		return "-"
	}
	return seconds(best)
}
