// Package alloc implements serverless resource allocation for
// non-time-critical work — the paper's central originality claim. Given a
// component's predicted demand (from internal/profile) and a completion
// budget, it chooses the function memory size that minimises expected
// dollar cost on a serverless platform, exploiting the structure of FaaS
// pricing:
//
//   - CPU grows with memory, so bigger functions finish sooner;
//   - price is memory × billed seconds, and memory pressure inflates
//     execution time when the working set barely fits, so the cost curve
//     over the memory ladder is U-shaped (pressure-inflated billed time on
//     the left, wasted memory on the right);
//   - delay-tolerant tasks can trade time for money by batching
//     invocations into one warm container, amortising cold starts.
//
// The pipeline allocator splits a single completion budget across a chain
// of functions by dynamic programming over discretised time.
package alloc

import (
	"fmt"
	"math"

	"offload/internal/model"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// Request is one allocation problem.
type Request struct {
	// Cycles is the predicted computational demand per invocation.
	Cycles float64
	// ParallelFraction is the Amdahl-parallelisable share of the work.
	ParallelFraction float64
	// MemoryFloorBytes is the working-set size; candidate memory sizes
	// below it are infeasible.
	MemoryFloorBytes int64
	// TimeBudget bounds the expected per-invocation time (cold start
	// included pro rata). Zero means unbounded — fully delay tolerant.
	TimeBudget sim.Duration
	// ColdStartProb is the expected fraction of invocations that pay a
	// cold start (see ColdStartProbability).
	ColdStartProb float64
}

// Validate reports whether the request is well formed. Non-finite values
// are rejected: a NaN passes every range comparison and would poison the
// cost of every ladder rung.
func (r Request) Validate() error {
	switch {
	case !finite(r.Cycles) || r.Cycles < 0:
		return fmt.Errorf("alloc: demand %g not a finite non-negative number", r.Cycles)
	case !(r.ParallelFraction >= 0 && r.ParallelFraction <= 1):
		return fmt.Errorf("alloc: parallel fraction %g outside [0,1]", r.ParallelFraction)
	case r.MemoryFloorBytes < 0:
		return fmt.Errorf("alloc: negative memory floor")
	case !finite(float64(r.TimeBudget)) || r.TimeBudget < 0:
		return fmt.Errorf("alloc: time budget %g not a finite non-negative duration", float64(r.TimeBudget))
	case !(r.ColdStartProb >= 0 && r.ColdStartProb <= 1):
		return fmt.Errorf("alloc: cold-start probability %g outside [0,1]", r.ColdStartProb)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Decision is one evaluated configuration.
type Decision struct {
	MemoryBytes     int64
	ExpectedTime    sim.Duration // expected wall time per invocation
	ExpectedCostUSD float64      // expected bill per invocation
	Feasible        bool         // meets the request's TimeBudget
}

// Allocator chooses function configurations for one platform.
type Allocator struct {
	cfg serverless.Config
}

// New returns an allocator for the given platform configuration. It panics
// if the configuration is invalid.
func New(cfg serverless.Config) *Allocator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Allocator{cfg: cfg}
}

// rungModel evaluates one request at any memory size. It holds the terms
// that do not depend on the size, so a pass over the ladder computes the
// serial time and the lognormal mean once, not once per rung.
type rungModel struct {
	cfg      *serverless.Config
	req      Request
	serial   float64 // execution seconds at one full vCPU
	coldMean float64 // mean lognormal cold start in seconds
}

func newRungModel(a *Allocator, req Request) rungModel {
	rm := rungModel{cfg: &a.cfg, req: req, serial: req.Cycles / a.cfg.BaselineHz}
	if cs := a.cfg.ColdStart; cs.MedianSec != 0 {
		// Mean of a lognormal with median m and dispersion sigma.
		rm.coldMean = cs.MedianSec * math.Exp(cs.Sigma*cs.Sigma/2)
	}
	return rm
}

// exec returns the execution time at memBytes.
func (rm *rungModel) exec(memBytes int64) sim.Duration {
	return rm.cfg.ExecTimeSerial(rm.serial, rm.req.ParallelFraction, rm.req.MemoryFloorBytes, memBytes)
}

// cold returns the mean cold-start duration at memBytes.
func (rm *rungModel) cold(memBytes int64) sim.Duration {
	cs := &rm.cfg.ColdStart
	if cs.MedianSec == 0 {
		return 0
	}
	return sim.Duration(rm.coldMean + cs.PerGBExtra*float64(memBytes)/float64(model.GB))
}

// at returns the expected time and cost at memBytes.
func (rm *rungModel) at(memBytes int64) Decision {
	req := &rm.req
	exec := rm.exec(memBytes)
	cold := rm.cold(memBytes)
	expTime := exec + sim.Duration(req.ColdStartProb*float64(cold))
	// Expected bill: cold invocations are billed for init + run.
	cost := req.ColdStartProb*rm.cfg.Price.Bill(memBytes, cold+exec) +
		(1-req.ColdStartProb)*rm.cfg.Price.Bill(memBytes, exec)
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

// Evaluate computes the expected time and cost of serving the request with
// the given memory size.
func (a *Allocator) Evaluate(req Request, memBytes int64) Decision {
	rm := newRungModel(a, req)
	return rm.at(memBytes)
}

// Sweep evaluates the request at every ladder size, in ascending memory
// order — the raw data behind the E2 cost curve.
func (a *Allocator) Sweep(req Request) ([]Decision, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	rm := newRungModel(a, req)
	ladder := a.cfg.MemoryLadder()
	out := make([]Decision, len(ladder))
	for i, m := range ladder {
		out[i] = rm.at(m)
	}
	return out, nil
}

// Choose returns the cheapest feasible configuration; ties break toward
// smaller memory. If no configuration meets the time budget, it returns
// the fastest feasible-by-memory configuration with Feasible=false, so
// callers can degrade gracefully.
//
// Choose returns exactly what a scan over Sweep would, in one pass that
// builds nothing and stops early. For every rung m at or above the floor,
// with share s(m) = CPUShare(m) and gb(m) = m/GB,
//
//	cost(m) ≥ lb(m) = PerRequestUSD + gb(m)·max(MinBilled, serial·((1−p)+p/s(m)))·PerGBSecondUSD
//
// because execution takes at least serial·((1−p)+p/s(m)) (pressure only
// slows it, and below one vCPU it takes serial/s(m), which is no less), a
// cold start only adds billed time, and billing rounds up. lb never falls
// as m grows: gb(m)/s(m) is constant until the share caps at MaxShare and
// rises after, so gb(m)·((1−p)+p/s(m)) = (1−p)·gb(m) + p·gb(m)/s(m) does
// not fall. Once lb(m) exceeds best·(1+1e-9)+1e-15, no rung from m on can
// undercut best by the 1e-15 tie margin, and the pass stops; the 1e-9
// relative slack absorbs rounding in the computed costs. Pruning starts
// only once a rung meets the budget, and the fastest fallback is returned
// only when none does.
func (a *Allocator) Choose(req Request) (Decision, error) {
	if err := req.Validate(); err != nil {
		return Decision{}, err
	}
	rm := newRungModel(a, req)
	price := &a.cfg.Price
	p := req.ParallelFraction
	var best Decision
	haveBest := false
	var fastest Decision
	haveFastest := false
	for m := a.cfg.MinMemory; m <= a.cfg.MaxMemory; m += a.cfg.MemoryStep {
		if m < req.MemoryFloorBytes {
			continue
		}
		if haveBest {
			billed := rm.serial * ((1 - p) + p/a.cfg.CPUShare(m))
			if billed < float64(price.MinBilled) {
				billed = float64(price.MinBilled)
			}
			lb := price.PerRequestUSD + float64(m)/float64(model.GB)*billed*price.PerGBSecondUSD
			if lb > best.ExpectedCostUSD*(1+1e-9)+1e-15 {
				break
			}
		}
		d := rm.at(m)
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
	return Decision{}, fmt.Errorf("alloc: working set %d bytes exceeds the platform maximum %d",
		req.MemoryFloorBytes, a.cfg.MaxMemory)
}

// ColdStartProbability returns the probability a Poisson arrival finds no
// warm container, i.e. the previous arrival was more than keepAlive ago:
// exp(-rate·keepAlive). A zero keep-alive makes every invocation cold.
func ColdStartProbability(ratePerSec float64, keepAlive sim.Duration) float64 {
	if ratePerSec <= 0 {
		return 1
	}
	if keepAlive <= 0 {
		return 1
	}
	return math.Exp(-ratePerSec * float64(keepAlive))
}

// BatchPlan describes serving batchSize delay-tolerant invocations
// sequentially in one container: one request charge, one possible cold
// start, batchSize executions.
type BatchPlan struct {
	BatchSize          int
	MemoryBytes        int64
	PerTaskCostUSD     float64
	PerTaskTime        sim.Duration // mean completion time within the batch
	TotalTime          sim.Duration
	SavingsVsUnbatched float64 // fractional cost saving
}

// PlanBatch evaluates batched execution of req at the given memory size.
// batchSize must be positive.
func (a *Allocator) PlanBatch(req Request, memBytes int64, batchSize int) (BatchPlan, error) {
	if err := req.Validate(); err != nil {
		return BatchPlan{}, err
	}
	if batchSize <= 0 {
		return BatchPlan{}, fmt.Errorf("alloc: batch size %d not positive", batchSize)
	}
	rm := newRungModel(a, req)
	exec := rm.exec(memBytes)
	cold := sim.Duration(req.ColdStartProb * float64(rm.cold(memBytes)))
	total := cold + sim.Duration(float64(exec)*float64(batchSize))
	batchedCost := a.cfg.Price.Bill(memBytes, total)
	single := rm.at(memBytes)
	unbatched := single.ExpectedCostUSD * float64(batchSize)
	savings := 0.0
	if unbatched > 0 {
		savings = 1 - batchedCost/unbatched
	}
	// Mean completion: task i finishes at cold + (i+1)·exec.
	mean := float64(cold) + float64(exec)*(float64(batchSize)+1)/2
	return BatchPlan{
		BatchSize:          batchSize,
		MemoryBytes:        memBytes,
		PerTaskCostUSD:     batchedCost / float64(batchSize),
		PerTaskTime:        sim.Duration(mean),
		TotalTime:          total,
		SavingsVsUnbatched: savings,
	}, nil
}
