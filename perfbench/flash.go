package main

import (
	"fmt"
	"runtime"
	"time"

	"offload/internal/core"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sim"
	"offload/internal/workload"
)

// flash-crowd: the E21 flash shape on core.ShardedFleet at 20k UEs × 4
// tasks, with one shard per CPU, the threshold policy and one shared
// serverless region. Decide is trivial here; the sharded kernel, the hub,
// serverless queueing and per-UE set-up take the time. It is the workload
// a decision-path change bypasses.
const (
	flashUEs      = 20_000
	flashTasks    = 4 // per UE
	flashCalmRate = 0.02
	flashRate     = 2.0
	flashStart    = sim.Time(30)
	flashEnd      = sim.Time(90)
	// flashDecideUEs is how many UEs' schedulers the traced run samples
	// Decide on after the run, flashDecideTasks tasks each.
	flashDecideUEs   = 200
	flashDecideTasks = 5
)

// flashArrivals is E21's two-regime arrival process: calm Poisson traffic
// that switches to a hotter stream inside [start, end).
type flashArrivals struct {
	calm, flash workload.Arrivals
	start, end  sim.Time
}

func (f *flashArrivals) Next(now sim.Time) sim.Duration {
	if now >= f.start && now < f.end {
		return f.flash.Next(now)
	}
	return f.calm.Next(now)
}

func flashConfig(seed uint64, shards int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Policy = core.PolicyThreshold
	cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
	cfg.ArrivalRateHint = flashCalmRate
	cfg.ShardCount = shards
	return cfg
}

// flashPass is what one flash-crowd pass measures.
type flashPass struct {
	passResult
	decide *tracer // traced passes only
}

// runFlashPass builds, submits and runs one flash-crowd fleet. A traced
// pass also logs serverless queue waits and samples Decide afterwards.
func runFlashPass(seed uint64, shards, ues int, traced bool) (*flashPass, error) {
	p := &flashPass{}
	r0 := settledRuntime()
	t0 := time.Now()
	f, err := core.NewShardedFleet(flashConfig(seed, shards), ues)
	if err != nil {
		return nil, err
	}
	p.build = time.Since(t0)
	p.setupAllocMB = r0.allocMB(settledRuntime())

	log := newSettleLog(ues, flashTasks)
	waits := make([]waitLog, f.Shards())
	for i, s := range f.Schedulers {
		// Task IDs of UE i are (i<<32)+1..; UE i runs on shard i mod
		// shards, so each log slot and wait log has one writer.
		s.ChainOutcomeHook(log.hook(i, model.TaskID(uint64(i)<<32)))
		if traced {
			s.ChainOutcomeHook(waits[i%f.Shards()].hook)
		}
	}

	t1 := time.Now()
	err = f.Submit(flashTasks, func(src *rng.Source, _ int) workload.Arrivals {
		return &flashArrivals{
			calm:  workload.NewPoisson(src.Split(), flashCalmRate),
			flash: workload.NewPoisson(src.Split(), flashRate),
			start: flashStart, end: flashEnd,
		}
	})
	if err != nil {
		return nil, err
	}
	p.submit = time.Since(t1)

	r1 := readRuntime()
	t2 := time.Now()
	f.Run()
	p.run = time.Since(t2)
	r2 := readRuntime()
	p.runAllocMB = r1.allocMB(r2)
	p.gcFrac = r1.gcFrac(r2)

	st := f.Stats()
	p.fingerprint = fmt.Sprintf("completed=%d failed=%d missed=%d mean=%.9g p95=%.9g cost=%.9g energy=%.9g events=%d windows=%d placements=%s",
		st.Completed, st.Failed, st.Missed, st.MeanCompletion, st.Completion.Quantile(0.95),
		st.CostUSD+st.FailedCostUSD, st.EnergyMilliJ+st.FailedEnergyMilliJ,
		f.Events(), f.SE.Windows(), placements(st.ByPlacement))
	p.bad, p.problems = log.verify()

	var devices, transfers uint64
	for i, s := range f.Schedulers {
		devices += f.Devices[i].Executed()
		if path := s.Env().CloudPath; path != nil {
			transfers += path.Stats().Transfers
		}
	}
	var starts, ends []float64
	for _, w := range waits {
		starts = append(starts, w.starts...)
		ends = append(ends, w.ends...)
	}
	ps := f.Platform().Stats()
	p.counts = map[string]float64{
		"device.executed":        float64(devices),
		"network.transfers":      float64(transfers),
		"serverless.invocations": float64(ps.Invocations),
		"serverless.cold_starts": float64(ps.ColdStarts),
		"serverless.queued_max":  float64(maxConcurrent(starts, ends)),
		"sim.events":             float64(f.Events()),
		"sim.windows":            float64(f.SE.Windows()),
		"sim.epochs":             float64(f.SE.Epoch()),
	}

	if traced {
		// The fleet builds each UE's policy itself, so Decide is timed
		// after the run on a sample of UEs' own schedulers.
		gen, err := workload.StandardMix(rng.New(rng.Derive(seed, 3)))
		if err != nil {
			return nil, err
		}
		tasks := make([]*model.Task, flashDecideTasks)
		p.decide = newTracer()
		step := ues / flashDecideUEs
		if step < 1 {
			step = 1
		}
		for i := 0; i < ues; i += step {
			for k := range tasks {
				tasks[k] = gen.Next(0)
			}
			sampleDecide(p.decide, f.Schedulers[i], tasks)
		}
	}
	runtime.KeepAlive(f)
	return p, nil
}

func runFlashCrowd(cfg runConfig) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	shards := runtime.NumCPU()
	var plain, traced []*flashPass
	err := passes(cfg, func(tracedPass bool) error {
		p, err := runFlashPass(cfg.seed, shards, flashUEs, tracedPass)
		if err != nil {
			return err
		}
		if tracedPass {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var setup []float64
	for _, p := range plain {
		setup = append(setup, (p.build + p.submit).Seconds())
	}
	fmt.Fprintf(stderrLog, "flash-crowd: %d UEs x %d tasks on %d shards\n", flashUEs, flashTasks, shards)
	runMed, err := summariseBatch(out, cfg, "flash-crowd", flashUEs*flashTasks, results(plain), results(traced))
	if err != nil {
		return nil, err
	}
	v := out.values
	v["setup_s"] = median(setup)
	if cfg.trace {
		tr := newTracer()
		for _, p := range traced {
			tr.merge(p.decide)
		}
		// One Decide per submitted task: the fleet configures no retries.
		calls := float64(flashUEs * flashTasks)
		v["sched.decide_ns"] = tr.meanNs(spanDecide, false)
		v["sched.decide_self_ns"] = tr.meanNs(spanDecide, true)
		v["sched.decide_calls"] = calls
		v["sched.decide_share"] = tr.meanNs(spanDecide, false) * calls / (runMed * 1e9)
		v["sched.predict_ns"] = tr.meanNs(spanPredict, false)
		out.spans = tr
	}
	return out, nil
}
