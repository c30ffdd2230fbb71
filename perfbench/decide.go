package main

import (
	"fmt"
	"runtime"
	"time"

	"offload/internal/cloudvm"
	"offload/internal/core"
	"offload/internal/device"
	"offload/internal/edge"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/serverless"
	"offload/internal/sim"
	"offload/internal/trace"
	"offload/internal/workload"
)

// decide-stream: one core.System on DefaultConfig (the configuration
// offloadd and the examples use) with the deadline-aware policy, fed a
// StandardMix Poisson stream. Every task lands on the edge site without
// queueing, so host time goes to Decide and the allocator sweep inside
// it: this workload shows any decision-path gain.
const (
	decideTasks = 50_000 // tasks per pass
	decideRate  = 0.02   // Poisson arrivals per simulated second
)

// decideInputs derives the task stream from the seed, independently of
// the system's own random streams.
func decideInputs(seed uint64) (*workload.Generator, workload.Arrivals, error) {
	gen, err := workload.StandardMix(rng.New(rng.Derive(seed, 1)))
	if err != nil {
		return nil, nil, err
	}
	return gen, workload.NewPoisson(rng.New(rng.Derive(seed, 2)), decideRate), nil
}

func decideConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// assembleTraced builds the same system core.NewSystem builds for
// decideConfig — same substrates, same rng splits in the same order —
// but hands sched.New a timing wrapper around the policy and the
// predictor. The tracing-inertness check compares its results with
// core.NewSystem's on every traced run.
func assembleTraced(cfg core.Config, tr *tracer) (*core.System, *timedPolicy, error) {
	eng := sim.NewEngine()
	src := rng.New(cfg.Seed)
	env := &sched.Env{Eng: eng, Device: device.New(eng, cfg.Device)}
	env.Edge = edge.New(eng, *cfg.Edge)
	env.EdgePath = network.New(eng, src.Split(), *cfg.EdgePath)
	env.Functions = sched.NewFunctionPool(serverless.NewPlatform(eng, src.Split(), *cfg.Serverless))
	env.CloudPath = network.New(eng, src.Split(), *cfg.CloudPath)
	env.VM = cloudvm.New(eng, *cfg.VM)
	pred := sched.NewPerApp(0.3)
	pol := &timedPolicy{inner: sched.NewDeadlineAware(), rawPred: pred, tr: tr}
	rec := &trace.Recorder{}
	s, err := sched.New(env, pol, &timedPredictor{inner: pred, tr: tr}, sched.WithOutcomeHook(rec.Hook()))
	if err != nil {
		return nil, nil, err
	}
	return &core.System{Eng: eng, Src: src, Env: env, Scheduler: s, Recorder: rec}, pol, nil
}

// systemFingerprint summarises a finished system's simulated results.
func systemFingerprint(sys *core.System) string {
	st := sys.Stats()
	return fmt.Sprintf("completed=%d failed=%d missed=%d mean=%.9g p95=%.9g cost=%.9g energy=%.9g events=%d placements=%s",
		st.Completed, st.Failed, st.Missed, st.MeanCompletion(), st.P95Completion(),
		st.TotalCostUSD(), st.TotalEnergyMilliJ(), sys.Eng.Fired(), placements(st.ByPlacement))
}

// substrateCounts reads the counters the substrates export.
func substrateCounts(env *sched.Env) map[string]float64 {
	v := map[string]float64{"device.executed": float64(env.Device.Executed())}
	if env.Edge != nil {
		v["edge.executed"] = float64(env.Edge.Executed())
	}
	if env.Functions != nil {
		ps := env.Functions.Platform().Stats()
		v["serverless.invocations"] = float64(ps.Invocations)
		v["serverless.cold_starts"] = float64(ps.ColdStarts)
	}
	var transfers uint64
	for _, p := range []*network.Path{env.EdgePath, env.CloudPath, env.VMPath} {
		if p != nil {
			transfers += p.Stats().Transfers
		}
	}
	v["network.transfers"] = float64(transfers)
	return v
}

// decidePass is what one decide-stream pass measures.
type decidePass struct {
	passResult
	retainedB float64
	pol       *timedPolicy
	pool      *sched.FunctionPool
}

// runDecidePass builds, submits and runs one decide-stream system. With a
// tracer it assembles the system with timing wrappers; with layers set it
// also measures the retained heap and serverless queue waits.
func runDecidePass(seed uint64, n int, tr *tracer, layers bool) (*decidePass, error) {
	gen, arr, err := decideInputs(seed)
	if err != nil {
		return nil, err
	}
	var base float64
	if layers {
		base = liveHeapBytes()
	}
	p := &decidePass{}
	r0 := settledRuntime()
	t0 := time.Now()
	var sys *core.System
	if tr == nil {
		sys, err = core.NewSystem(decideConfig(seed))
	} else {
		sys, p.pol, err = assembleTraced(decideConfig(seed), tr)
	}
	if err != nil {
		return nil, err
	}
	p.build = time.Since(t0)
	p.setupAllocMB = r0.allocMB(settledRuntime())
	log := newSettleLog(1, n)
	var waits waitLog
	sys.Scheduler.ChainOutcomeHook(log.hook(0, 0))
	if layers {
		sys.Scheduler.ChainOutcomeHook(waits.hook)
	}

	t1 := time.Now()
	if tr == nil {
		sys.SubmitStream(arr, gen, n)
	} else {
		workload.Stream(sys.Eng, arr, gen, n, func(t *model.Task) {
			tr.begin(spanSubmit)
			sys.Submit(t)
			tr.end()
		})
	}
	p.submit = time.Since(t1)
	r1 := readRuntime()

	t2 := time.Now()
	sys.Run()
	p.run = time.Since(t2)
	r2 := readRuntime()
	p.runAllocMB = r1.allocMB(r2)
	p.gcFrac = r1.gcFrac(r2)

	if layers {
		p.retainedB = (liveHeapBytes() - base) / float64(n)
		runtime.KeepAlive(sys)
	}
	p.fingerprint = systemFingerprint(sys)
	p.bad, p.problems = log.verify()
	p.counts = substrateCounts(sys.Env)
	p.counts["serverless.queued_max"] = float64(maxConcurrent(waits.starts, waits.ends))
	p.counts["sim.events"] = float64(sys.Eng.Fired())
	p.pool = sys.Env.Functions
	return p, nil
}

// decideSetupReps is how many extra set-ups a run times besides those of
// its passes: one set-up takes tens of microseconds, so its median needs
// many samples.
const decideSetupReps = 41

// timeDecideSetup times core.NewSystem plus the stream submission.
func timeDecideSetup(seed uint64) (time.Duration, error) {
	gen, arr, err := decideInputs(seed)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	sys, err := core.NewSystem(decideConfig(seed))
	if err != nil {
		return 0, err
	}
	sys.SubmitStream(arr, gen, decideTasks)
	return time.Since(t0), nil
}

func runDecideStream(cfg runConfig) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	var setup []float64
	for i := 0; i < decideSetupReps; i++ {
		d, err := timeDecideSetup(cfg.seed)
		if err != nil {
			return nil, err
		}
		setup = append(setup, d.Seconds())
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var plain, traced []*decidePass
	err := passes(cfg, func(tracedPass bool) error {
		if !tracedPass {
			p, err := runDecidePass(cfg.seed, decideTasks, nil, cfg.trace)
			plain = append(plain, p)
			return err
		}
		tr.begin("pass")
		defer tr.end()
		p, err := runDecidePass(cfg.seed, decideTasks, tr, true)
		traced = append(traced, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	runMed, err := summariseBatch(out, cfg, "decide-stream", decideTasks, results(plain), results(traced))
	if err != nil {
		return nil, err
	}
	v := out.values
	v["setup_s"] = median(setup)
	if cfg.trace {
		var retained []float64
		for _, p := range plain {
			retained = append(retained, p.retainedB)
		}
		v["trace.retained_b_per_task"] = median(retained)
		n := float64(len(traced))
		v["sched.decide_ns"] = tr.meanNs(spanDecide, false)
		v["sched.decide_self_ns"] = tr.meanNs(spanDecide, true)
		v["sched.decide_calls"] = float64(tr.calls(spanDecide)) / n
		v["sched.decide_share"] = float64(tr.totalNs(spanDecide)) / n / (runMed * 1e9)
		v["sched.predict_ns"] = tr.meanNs(spanPredict, false)
		v["alloc.choose_ns"] = tr.meanNs(spanEstimate, false)
		last := traced[len(traced)-1]
		v["alloc.choose_bytes"] = chooseBytes(last.pool, last.pol.samples)
		out.spans = tr
	}
	return out, nil
}
