package alloc

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"offload/internal/model"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// evaluateReference is Evaluate before its rung-independent terms were
// hoisted: an ExecTime call and a fresh lognormal mean at every rung.
func evaluateReference(cfg serverless.Config, req Request, memBytes int64) Decision {
	task := &model.Task{
		Cycles:           req.Cycles,
		ParallelFraction: req.ParallelFraction,
		MemoryBytes:      req.MemoryFloorBytes,
	}
	exec := cfg.ExecTime(task, memBytes)
	var cold sim.Duration
	if cs := cfg.ColdStart; cs.MedianSec != 0 {
		mean := cs.MedianSec * math.Exp(cs.Sigma*cs.Sigma/2)
		cold = sim.Duration(mean + cs.PerGBExtra*float64(memBytes)/float64(model.GB))
	}
	expTime := exec + sim.Duration(req.ColdStartProb*float64(cold))
	cost := req.ColdStartProb*cfg.Price.Bill(memBytes, cold+exec) +
		(1-req.ColdStartProb)*cfg.Price.Bill(memBytes, exec)
	d := Decision{
		MemoryBytes:     memBytes,
		ExpectedTime:    expTime,
		ExpectedCostUSD: cost,
		Feasible:        memBytes >= req.MemoryFloorBytes,
	}
	if req.TimeBudget > 0 && expTime > req.TimeBudget {
		d.Feasible = false
	}
	return d
}

// chooseReference is Choose as a sweep then a scan: evaluate every rung
// of the ladder, then take the cheapest feasible one, or the fastest one
// at or above the memory floor when none meets the budget. It is the
// oracle the single-pass, pruned Choose must match bit for bit.
func chooseReference(cfg serverless.Config, req Request) (Decision, error) {
	if err := req.Validate(); err != nil {
		return Decision{}, err
	}
	ladder := cfg.MemoryLadder()
	decisions := make([]Decision, 0, len(ladder))
	for _, m := range ladder {
		decisions = append(decisions, evaluateReference(cfg, req, m))
	}
	var best Decision
	haveBest := false
	var fastest Decision
	haveFastest := false
	for _, d := range decisions {
		if d.MemoryBytes < req.MemoryFloorBytes {
			continue
		}
		if !haveFastest || d.ExpectedTime < fastest.ExpectedTime {
			fastest, haveFastest = d, true
		}
		if !d.Feasible {
			continue
		}
		if !haveBest || d.ExpectedCostUSD < best.ExpectedCostUSD-1e-15 {
			best, haveBest = d, true
		}
	}
	if haveBest {
		return best, nil
	}
	if haveFastest {
		return fastest, nil
	}
	return Decision{}, errors.New("alloc: working set exceeds the platform maximum")
}

// sameDecision reports whether two decisions are bit-identical. It is ==
// on Decision except that a NaN field equals the same NaN.
func sameDecision(x, y Decision) bool {
	return x.MemoryBytes == y.MemoryBytes && x.Feasible == y.Feasible &&
		math.Float64bits(float64(x.ExpectedTime)) == math.Float64bits(float64(y.ExpectedTime)) &&
		math.Float64bits(x.ExpectedCostUSD) == math.Float64bits(y.ExpectedCostUSD)
}

// differentialConfigs are the platforms Choose is checked on: the two
// calibrated ones, the test platform, and variants of it that switch off
// cold starts and memory pressure, cap the CPU share mid-ladder, and bill
// a one-second minimum so that short runs finish under MinBilled.
func differentialConfigs() []serverless.Config {
	noCold := platformConfig()
	noCold.Name = "no-cold-start"
	noCold.ColdStart = serverless.ColdStartModel{}
	noPressure := platformConfig()
	noPressure.Name = "no-pressure"
	noPressure.PressurePenalty = 0
	lowCap := platformConfig()
	lowCap.Name = "share-capped-mid-ladder"
	lowCap.MaxShare = 2 // reached at 2 GB of a 4 GB ladder
	lowCap.ColdStart = serverless.ColdStartModel{MedianSec: 0.4, Sigma: 0.6, PerGBExtra: 0.2}
	longMin := platformConfig()
	longMin.Name = "one-second-minimum"
	longMin.Price.MinBilled = 1
	longMin.Price.Granularity = 0.1
	return []serverless.Config{
		serverless.LambdaLike(), serverless.GCFLike(), platformConfig(),
		noCold, noPressure, lowCap, longMin,
	}
}

// randomRequest draws a request spanning the regimes that shape the cost
// curve: demand from 40 µs to hours of serial work, serial and fully
// parallel tasks, memory floors below, on and between rungs and above the
// platform maximum, budgets from impossible to loose, and cold-start
// probabilities at both ends and between.
func randomRequest(r *rand.Rand, cfg serverless.Config) Request {
	req := Request{Cycles: math.Pow(10, 5+8*r.Float64())}
	switch r.IntN(4) {
	case 0:
		req.ParallelFraction = 0
	case 1:
		req.ParallelFraction = 1
	default:
		req.ParallelFraction = r.Float64()
	}
	switch r.IntN(5) {
	case 0:
		req.MemoryFloorBytes = 0
	case 1:
		rungs := (cfg.MaxMemory-cfg.MinMemory)/cfg.MemoryStep + 1
		req.MemoryFloorBytes = cfg.MinMemory + r.Int64N(rungs)*cfg.MemoryStep
	default:
		req.MemoryFloorBytes = r.Int64N(cfg.MaxMemory + cfg.MaxMemory/10)
	}
	if r.IntN(3) > 0 {
		serial := req.Cycles / cfg.BaselineHz
		req.TimeBudget = sim.Duration(serial * math.Pow(10, 2*r.Float64()-1.5))
	}
	switch r.IntN(4) {
	case 0:
		req.ColdStartProb = 0
	case 1:
		req.ColdStartProb = 1
	default:
		req.ColdStartProb = r.Float64()
	}
	return req
}

func checkChooseMatches(t testing.TB, a *Allocator, cfg serverless.Config, req Request) {
	t.Helper()
	got, gotErr := a.Choose(req)
	want, wantErr := chooseReference(cfg, req)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s %+v: Choose error %v, reference error %v", cfg.Name, req, gotErr, wantErr)
	}
	if !sameDecision(got, want) {
		t.Fatalf("%s %+v:\n Choose    %+v\n reference %+v", cfg.Name, req, got, want)
	}
}

// TestChooseMatchesSweep proves the single-pass, pruned Choose returns
// exactly the decision of a scan over the full sweep, on fixed edge cases
// and then on 504k seeded random requests spread over seven platforms. On
// a sample of the requests it also checks Sweep, rung by rung, against the
// reference evaluation.
func TestChooseMatchesSweep(t *testing.T) {
	cfgs := differentialConfigs()
	allocs := make([]*Allocator, len(cfgs))
	for i, cfg := range cfgs {
		allocs[i] = New(cfg)
	}

	test := allocs[2]
	edge := []struct {
		name string
		req  Request
		// check asserts the property that makes the case an edge case.
		check func(Decision, error) bool
	}{
		{"floor above MaxMemory", Request{Cycles: 1e9, MemoryFloorBytes: 5 * model.GB},
			func(_ Decision, err error) bool { return err != nil }},
		{"no rung meets the budget", Request{Cycles: 100e9, TimeBudget: 5},
			func(d Decision, err error) bool { return err == nil && !d.Feasible }},
		{"every invocation cold", Request{Cycles: 5e9, ColdStartProb: 1, TimeBudget: 20},
			func(d Decision, err error) bool { return err == nil && d.Feasible }},
		{"never cold", Request{Cycles: 5e9, ColdStartProb: 0, TimeBudget: 20},
			func(d Decision, err error) bool { return err == nil && d.Feasible }},
		{"exec under MinBilled", Request{Cycles: 1e5},
			func(d Decision, err error) bool {
				return err == nil && d.ExpectedTime < test.cfg.Price.MinBilled
			}},
		{"zero demand", Request{},
			func(d Decision, err error) bool { return err == nil && d.MemoryBytes == test.cfg.MinMemory }},
		{"budget needs the largest rung", Request{Cycles: 40e9, ParallelFraction: 1, TimeBudget: 10.01},
			func(d Decision, err error) bool { return err == nil && d.MemoryBytes == test.cfg.MaxMemory }},
	}
	for _, tc := range edge {
		d, err := test.Choose(tc.req)
		if !tc.check(d, err) {
			t.Errorf("%s: Choose = %+v, %v does not show the edge case", tc.name, d, err)
		}
		for i, a := range allocs {
			checkChooseMatches(t, a, cfgs[i], tc.req)
		}
	}

	r := rand.New(rand.NewPCG(1, 13))
	const perConfig = 72_000 // 504k over seven platforms
	for i, a := range allocs {
		cfg := cfgs[i]
		for n := 0; n < perConfig; n++ {
			req := randomRequest(r, cfg)
			checkChooseMatches(t, a, cfg, req)
			if n%256 != 0 {
				continue
			}
			sweep, err := a.Sweep(req)
			if err != nil {
				t.Fatal(err)
			}
			for j, m := range cfg.MemoryLadder() {
				if want := evaluateReference(cfg, req, m); !sameDecision(sweep[j], want) {
					t.Fatalf("%s %+v: Sweep[%d] = %+v, reference %+v", cfg.Name, req, j, sweep[j], want)
				}
			}
		}
	}
}

// FuzzChooseMatchesReference drives the same comparison with arbitrary
// requests, NaN and infinities included, on every differential platform.
func FuzzChooseMatchesReference(f *testing.F) {
	f.Add(uint8(0), 3e10, 0.8, int64(1<<30), 300.0, 0.3)
	f.Add(uint8(1), 1e5, 0.0, int64(0), 0.0, 1.0)
	f.Add(uint8(2), 100e9, 0.0, int64(0), 5.0, 0.0)
	f.Add(uint8(5), 40e9, 1.0, int64(3<<30), 12.0, 0.5)
	f.Add(uint8(2), math.NaN(), 0.5, int64(0), 0.0, 0.0)
	cfgs := differentialConfigs()
	allocs := make([]*Allocator, len(cfgs))
	for i, cfg := range cfgs {
		allocs[i] = New(cfg)
	}
	f.Fuzz(func(t *testing.T, which uint8, cycles, pf float64, floor int64, budget, coldProb float64) {
		i := int(which) % len(cfgs)
		req := Request{
			Cycles:           cycles,
			ParallelFraction: pf,
			MemoryFloorBytes: floor,
			TimeBudget:       sim.Duration(budget),
			ColdStartProb:    coldProb,
		}
		checkChooseMatches(t, allocs[i], cfgs[i], req)
	})
}

// TestChooseAllocatesNothing pins the decision path's allocation
// contract: sizing a function builds no ladder and no decision slice.
func TestChooseAllocatesNothing(t *testing.T) {
	a := New(serverless.LambdaLike())
	req := Request{Cycles: 3e10, ParallelFraction: 0.8,
		MemoryFloorBytes: 1 << 30, ColdStartProb: 0.3, TimeBudget: 300}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := a.Choose(req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Choose allocates %v times per call, want 0", n)
	}
}
