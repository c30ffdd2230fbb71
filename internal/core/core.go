// Package core is the framework façade: it assembles the substrates
// (device, networks, edge, serverless, VMs) into a live System driven by a
// placement policy, and provides the offline planning journey — profile →
// partition → allocate → manifest — that cmd/offctl and the CI/CD stages
// expose to developers.
package core

import (
	"fmt"

	"offload/internal/adapt"
	"offload/internal/cloudvm"
	"offload/internal/dag"
	"offload/internal/device"
	"offload/internal/edge"
	"offload/internal/fault"
	"offload/internal/model"
	"offload/internal/network"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/serverless"
	"offload/internal/sim"
	"offload/internal/trace"
	"offload/internal/workload"
)

// PolicyName selects a placement policy.
type PolicyName string

// The available policies.
const (
	PolicyLocalOnly     PolicyName = "local-only"
	PolicyEdgeAll       PolicyName = "edge-all"
	PolicyCloudAll      PolicyName = "cloud-all"
	PolicyVMAll         PolicyName = "vm-all"
	PolicyRandom        PolicyName = "random"
	PolicyThreshold     PolicyName = "threshold"
	PolicyDeadlineAware PolicyName = "deadline-aware"
	PolicyBanditUCB     PolicyName = "bandit-ucb"
	PolicyBanditGreedy  PolicyName = "bandit-greedy"
)

// DefaultThresholdCycles is the offloading threshold the "threshold"
// policy uses: 5 Gcycles, a couple of seconds of mid-range-phone work.
const DefaultThresholdCycles = 5e9

// AllPolicies lists the policy names in canonical order.
func AllPolicies() []PolicyName {
	return []PolicyName{
		PolicyLocalOnly, PolicyEdgeAll, PolicyCloudAll,
		PolicyVMAll, PolicyRandom, PolicyThreshold, PolicyDeadlineAware,
		PolicyBanditUCB, PolicyBanditGreedy,
	}
}

// BatchConfig enables delay-tolerant batching of serverless tasks.
type BatchConfig struct {
	Size    int
	MaxWait sim.Duration
}

// Config assembles a complete offloading environment. Nil substrate
// configs leave that substrate out; Device and at least one remote
// substrate are required for offloading policies to differ from local.
type Config struct {
	Seed uint64

	Device device.Config

	Edge     *edge.Config
	EdgePath *network.Config

	Serverless *serverless.Config
	CloudPath  *network.Config

	VM *cloudvm.Config

	Policy PolicyName

	// PredictionNoise perturbs demand predictions (E10 knob). Zero gives
	// the adaptive per-app predictor exact feedback.
	PredictionNoise float64

	// ArrivalRateHint feeds the function pool's cold-start estimate.
	ArrivalRateHint float64

	// RedeployTolerance makes the function pool re-size a deployed
	// function when predicted demand drifts by more than this factor.
	// Zero sizes each function once, from the first prediction.
	RedeployTolerance float64

	// ProvisionedConcurrency pre-warms this many environments per deployed
	// function, trading a capacity fee for zero cold starts.
	ProvisionedConcurrency int

	// Batch, when non-nil, wraps the scheduler in a Batcher.
	Batch *BatchConfig

	// OffPeakShift delays slack-rich serverless tasks into the platform's
	// off-peak pricing window (requires a price schedule on the platform).
	// Mutually exclusive with Batch.
	OffPeakShift bool

	// Retries enables transparent retries of transient infrastructure
	// failures: total attempts per task (values <= 1 disable retries),
	// with exponential backoff starting at RetryBackoff, capped at
	// RetryMaxBackoff (zero leaves it uncapped). RetryJitter draws each
	// delay uniformly from [0, backoff) on a dedicated rng stream.
	Retries         int
	RetryBackoff    sim.Duration
	RetryMaxBackoff sim.Duration
	RetryJitter     bool

	// Fault, EdgeFault and VMFault install composite fault models
	// (correlated outages, scheduled windows, stragglers — see
	// internal/fault) on the serverless platform, the edge site and the
	// VM fleet. A non-nil Fault replaces Serverless.FailureRate.
	Fault     *fault.Config
	EdgeFault *fault.Config
	VMFault   *fault.Config

	// Resilience enables the scheduler's client-side resilience layer:
	// per-attempt timeouts, hedged requests, circuit breakers and
	// fallback execution. See sched.Resilience.
	Resilience *sched.Resilience

	// LocalDVFSMinScale enables per-task DVFS for local executions: tasks
	// run at the slowest frequency (floored here, in (0,1]) that still
	// meets their deadline. Zero disables.
	LocalDVFSMinScale float64

	// DailyBudgetUSD caps serverless spending per virtual day: once spent,
	// serverless-bound tasks fall back to free capacity. Zero disables.
	DailyBudgetUSD float64

	// Adapt configures the online adaptive layer (internal/adapt). For the
	// bandit-ucb / bandit-greedy policies it parameterises the bandit
	// (nil takes adapt.DefaultConfig); for any other policy a non-nil
	// Adapt wraps the policy with the configured memory tuning, drift
	// detection and admission control. The layer is strictly opt-in: a nil
	// Adapt with a non-bandit policy leaves every code path and rng stream
	// exactly as before.
	Adapt *adapt.Config

	// Regions homes each remote substrate in a named region and enables
	// the regional fault/failover machinery. Strictly opt-in: nil leaves
	// every code path and rng stream exactly as before.
	Regions *RegionsConfig

	// DAG enables precedence-aware job submission (SubmitJob /
	// SubmitJobStream) through an internal/dag Orchestrator. Strictly
	// opt-in and randomness-free: nil changes no code path or rng stream.
	// Mutually exclusive with Batch and OffPeakShift, whose wrappers the
	// orchestrator's node dispatches would bypass.
	DAG *DAGConfig

	// ShardCount partitions a fleet-scale run (NewShardedFleet) across
	// this many worker shards advancing in lockstep epochs against a
	// hub engine that owns the shared substrates — see sim.ShardedEngine.
	// 0 and 1 both mean one shard. Results are byte-identical at every
	// shard count: the sharded fleet keys all randomness per UE, never
	// per shard. Ignored by NewSystem and NewFleet, so existing
	// configurations change nothing.
	ShardCount int

	// ShardInterval is the conservative-barrier epoch width in simulated
	// seconds: cross-shard messages (remote executions and their
	// replies) are delivered at the next multiple of it. Zero takes
	// DefaultShardInterval. Smaller intervals tighten the feedback
	// latency quantisation; larger ones amortise barrier overhead.
	ShardInterval sim.Duration
}

// DefaultShardInterval is the ShardInterval a sharded fleet uses when the
// configuration leaves it zero: half a simulated second, well under the
// seconds-scale transfer+execution times of the workload mix, so barrier
// quantisation is negligible against non-time-critical deadlines.
const DefaultShardInterval sim.Duration = 0.5

// RegionsConfig places the remote substrates on a map of named regions,
// attaches correlated regional fault schedules, and (optionally) turns on
// the scheduler's failover layer. Empty region names leave that substrate
// region-less.
type RegionsConfig struct {
	// Edge, Serverless and VM name the region each substrate is homed in.
	Edge       string
	Serverless string
	VM         string

	// Link models the inter-region backbone re-homed state crosses. The
	// zero value takes model.DefaultInterRegionLink.
	Link model.InterRegionLink

	// Schedules lists correlated fault schedules, one per region. Every
	// substrate homed in a scheduled region gets a regional injector
	// (chained in front of its own fault model) built from the schedule.
	Schedules []fault.RegionSchedule

	// Failover, when non-nil, enables the scheduler's regional failover
	// layer (see sched.Failover); its Regions map and Link are filled in
	// from this config when left unset.
	Failover *sched.Failover
}

// regionOf returns the configured region of a placement ("" = none).
func (rc *RegionsConfig) regionOf(p model.Placement) string {
	switch p {
	case model.PlaceEdge:
		return rc.Edge
	case model.PlaceFunction:
		return rc.Serverless
	case model.PlaceVM:
		return rc.VM
	}
	return ""
}

// DefaultConfig is a smartphone on WiFi/LAN with every substrate present
// and the deadline-aware policy: the configuration the examples use.
func DefaultConfig() Config {
	edgeCfg := edge.SmallSite()
	edgePath := network.LANEdge()
	slCfg := serverless.LambdaLike()
	cloudPath := network.WiFiCloud()
	vmCfg := cloudvm.C5Large()
	return Config{
		Seed:       1,
		Device:     device.Smartphone(),
		Edge:       &edgeCfg,
		EdgePath:   &edgePath,
		Serverless: &slCfg,
		CloudPath:  &cloudPath,
		VM:         &vmCfg,
		Policy:     PolicyDeadlineAware,
	}
}

// System is a live assembled environment.
type System struct {
	Eng *sim.Engine
	Src *rng.Source
	Env *sched.Env

	Scheduler *sched.Scheduler
	Batcher   *sched.Batcher        // nil unless batching is configured
	Shifter   *sched.OffPeakShifter // nil unless off-peak shifting is on
	Jobs      *dag.Orchestrator     // nil unless a DAG block is configured
	Recorder  *trace.Recorder       // nil unless EnableRecords was called

	observer *Observer           // nil unless Observe was called
	spanRec  *trace.SpanRecorder // nil unless EnableSpans was called
	adapt    *adapt.Controller   // nil unless the adaptive layer is on
	jobErr   error               // first in-stream job submission error
	cfg      Config
}

// NewSystem builds a System from the configuration.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	src := rng.New(cfg.Seed)

	env := &sched.Env{
		Eng:    eng,
		Device: device.New(eng, cfg.Device),
	}
	if cfg.Edge != nil {
		if cfg.EdgePath == nil {
			return nil, fmt.Errorf("core: edge configured without an edge path")
		}
		env.Edge = edge.New(eng, *cfg.Edge)
		env.EdgePath = network.New(eng, src.Split(), *cfg.EdgePath)
	}
	if cfg.Serverless != nil {
		if cfg.CloudPath == nil {
			return nil, fmt.Errorf("core: serverless configured without a cloud path")
		}
		platform := serverless.NewPlatform(eng, src.Split(), *cfg.Serverless)
		pool := sched.NewFunctionPool(platform)
		pool.ArrivalRateHint = cfg.ArrivalRateHint
		pool.RedeployTolerance = cfg.RedeployTolerance
		pool.ProvisionedConcurrency = cfg.ProvisionedConcurrency
		env.Functions = pool
		env.CloudPath = network.New(eng, src.Split(), *cfg.CloudPath)
	}
	if cfg.VM != nil {
		if cfg.CloudPath == nil {
			return nil, fmt.Errorf("core: VM configured without a cloud path")
		}
		env.VM = cloudvm.New(eng, *cfg.VM)
		if env.CloudPath == nil {
			env.CloudPath = network.New(eng, src.Split(), *cfg.CloudPath)
		}
	}

	policy, ctrl, err := buildPolicy(cfg, src)
	if err != nil {
		return nil, err
	}
	var budget *sched.Budget
	if cfg.DailyBudgetUSD > 0 {
		budget, err = sched.NewBudget(eng, cfg.DailyBudgetUSD)
		if err != nil {
			return nil, err
		}
		policy = &sched.BudgetedPolicy{Inner: policy, Budget: budget}
	}
	var pred sched.Predictor = sched.NewPerApp(0.3)
	if cfg.PredictionNoise > 0 {
		pred = sched.NewNoisy(pred, src.Split(), cfg.PredictionNoise)
	}

	var opts []sched.Option
	if budget != nil {
		opts = append(opts, sched.WithOutcomeHook(budget.Hook()))
	}
	if cfg.Retries > 1 {
		backoff := cfg.RetryBackoff
		if backoff <= 0 {
			backoff = 1
		}
		opts = append(opts, sched.WithRetries(sched.RetryPolicy{
			MaxAttempts: cfg.Retries,
			Backoff:     backoff,
			MaxBackoff:  cfg.RetryMaxBackoff,
			FullJitter:  cfg.RetryJitter,
		}))
	}
	if cfg.LocalDVFSMinScale > 0 {
		opts = append(opts, sched.WithLocalDVFS(cfg.LocalDVFSMinScale))
	}
	// New rng splits must stay behind every pre-existing one so that
	// configurations not using these features keep byte-identical streams.
	if cfg.RetryJitter {
		opts = append(opts, sched.WithRNG(src.Split()))
	}
	if cfg.Resilience != nil {
		opts = append(opts, sched.WithResilience(*cfg.Resilience))
	}
	if cfg.Regions != nil && cfg.Regions.Failover != nil {
		// Failover draws no randomness; only the regional injectors below
		// consume new splits.
		fo := *cfg.Regions.Failover
		if fo.Regions == nil {
			fo.Regions = map[model.Placement]string{}
			for _, p := range model.AllPlacements() {
				if name := cfg.Regions.regionOf(p); name != "" {
					fo.Regions[p] = name
				}
			}
		}
		if fo.Link == (model.InterRegionLink{}) {
			fo.Link = cfg.Regions.Link
		}
		opts = append(opts, sched.WithFailover(fo))
	}
	s, err := sched.New(env, policy, pred, opts...)
	if err != nil {
		return nil, err
	}
	sys := &System{Eng: eng, Src: src, Env: env, Scheduler: s, adapt: ctrl, cfg: cfg}
	if cfg.Batch != nil && cfg.OffPeakShift {
		return nil, fmt.Errorf("core: Batch and OffPeakShift are mutually exclusive")
	}
	if cfg.Batch != nil {
		b, err := sched.NewBatcher(s, cfg.Batch.Size, cfg.Batch.MaxWait)
		if err != nil {
			return nil, err
		}
		sys.Batcher = b
	}
	if cfg.OffPeakShift {
		sh, err := sched.NewOffPeakShifter(s)
		if err != nil {
			return nil, err
		}
		sys.Shifter = sh
	}
	if cfg.DAG != nil {
		if cfg.Batch != nil || cfg.OffPeakShift {
			return nil, fmt.Errorf("core: DAG is mutually exclusive with Batch and OffPeakShift")
		}
		placer, err := cfg.DAG.placer()
		if err != nil {
			return nil, err
		}
		// The orchestrator draws no randomness and adds no events of its
		// own, so configurations without DAG keep byte-identical streams.
		sys.Jobs = dag.NewOrchestrator(s, placer)
	}
	if cfg.Fault != nil {
		if sys.Platform() == nil {
			return nil, fmt.Errorf("core: Fault configured without serverless")
		}
		inj, err := fault.New(src.Split(), *cfg.Fault)
		if err != nil {
			return nil, err
		}
		if inj != nil {
			sys.Platform().SetFaultInjector(inj)
		}
	}
	if cfg.EdgeFault != nil {
		if env.Edge == nil {
			return nil, fmt.Errorf("core: EdgeFault configured without edge")
		}
		inj, err := fault.New(src.Split(), *cfg.EdgeFault)
		if err != nil {
			return nil, err
		}
		env.Edge.SetFaultInjector(inj)
	}
	if cfg.VMFault != nil {
		if env.VM == nil {
			return nil, fmt.Errorf("core: VMFault configured without a VM fleet")
		}
		inj, err := fault.New(src.Split(), *cfg.VMFault)
		if err != nil {
			return nil, err
		}
		env.VM.SetFaultInjector(inj)
	}
	if cfg.Regions != nil {
		if err := installRegions(sys, src, cfg.Regions); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// installRegions chains a regional fault injector in front of each
// substrate homed in a scheduled region. Substrates are visited in
// canonical placement order, one rng split per (substrate, schedule)
// pair, and these splits come after every other split NewSystem makes —
// so configurations without Regions keep byte-identical streams.
func installRegions(sys *System, src *rng.Source, rc *RegionsConfig) error {
	byRegion := make(map[string]fault.RegionSchedule, len(rc.Schedules))
	for _, sch := range rc.Schedules {
		if err := sch.Validate(); err != nil {
			return err
		}
		if _, dup := byRegion[sch.Region]; dup {
			return fmt.Errorf("core: duplicate region schedule for %q", sch.Region)
		}
		byRegion[sch.Region] = sch
	}
	used := make(map[string]bool, len(byRegion))
	env := sys.Env
	for _, p := range model.AllPlacements() {
		name := rc.regionOf(p)
		if name == "" {
			continue
		}
		switch {
		case p == model.PlaceEdge && env.Edge == nil:
			return fmt.Errorf("core: Regions.Edge %q named without an edge site", name)
		case p == model.PlaceFunction && env.Functions == nil:
			return fmt.Errorf("core: Regions.Serverless %q named without serverless", name)
		case p == model.PlaceVM && env.VM == nil:
			return fmt.Errorf("core: Regions.VM %q named without a VM fleet", name)
		}
		sch, ok := byRegion[name]
		if !ok {
			continue // a region without a schedule is simply healthy
		}
		used[name] = true
		rinj, err := fault.New(src.Split(), sch.Config())
		if err != nil {
			return err
		}
		switch p {
		case model.PlaceEdge:
			env.Edge.SetFaultInjector(fault.Chain(rinj, env.Edge.FaultInjector()))
		case model.PlaceFunction:
			pl := sys.Platform()
			pl.SetFaultInjector(fault.Chain(rinj, pl.FaultInjector()))
		case model.PlaceVM:
			env.VM.SetFaultInjector(fault.Chain(rinj, env.VM.FaultInjector()))
		}
	}
	for _, sch := range rc.Schedules {
		if !used[sch.Region] {
			return fmt.Errorf("core: region schedule for %q matches no substrate", sch.Region)
		}
	}
	return nil
}

// buildPolicy resolves the configured policy, constructing the adaptive
// controller when the policy is a bandit or an Adapt block asks for the
// wrap. The controller (nil otherwise) is also returned so the System can
// expose its learned state. Only bandit policies draw from src here —
// configurations without them consume the stream exactly as before.
func buildPolicy(cfg Config, src *rng.Source) (sched.Policy, *adapt.Controller, error) {
	acfg := adapt.DefaultConfig()
	if cfg.Adapt != nil {
		acfg = *cfg.Adapt
	}
	switch cfg.Policy {
	case PolicyBanditUCB, PolicyBanditGreedy:
		kind := adapt.BanditUCB
		if cfg.Policy == PolicyBanditGreedy {
			kind = adapt.BanditGreedy
		}
		ctrl, err := adapt.NewBandit(kind, acfg, src.Split())
		if err != nil {
			return nil, nil, err
		}
		return ctrl, ctrl, nil
	}
	base, err := buildStaticPolicy(cfg.Policy, src)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Adapt == nil {
		return base, nil, nil
	}
	ctrl, err := adapt.Wrap(base, acfg)
	if err != nil {
		return nil, nil, err
	}
	return ctrl, ctrl, nil
}

func buildStaticPolicy(name PolicyName, src *rng.Source) (sched.Policy, error) {
	switch name {
	case PolicyLocalOnly, "":
		return sched.LocalOnly{}, nil
	case PolicyEdgeAll:
		return sched.EdgeAll{}, nil
	case PolicyCloudAll:
		return sched.CloudAll{}, nil
	case PolicyVMAll:
		return sched.VMAll{}, nil
	case PolicyRandom:
		return &sched.Random{Src: src.Split()}, nil
	case PolicyThreshold:
		return &sched.Threshold{Cycles: DefaultThresholdCycles}, nil
	case PolicyDeadlineAware:
		return sched.NewDeadlineAware(), nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q", name)
	}
}

// Submit routes one task through the configured scheduler (or its
// batching / off-peak-shifting wrapper).
func (s *System) Submit(task *model.Task) {
	switch {
	case s.Batcher != nil:
		s.Batcher.Submit(task)
	case s.Shifter != nil:
		s.Shifter.Submit(task)
	default:
		s.Scheduler.Submit(task)
	}
}

// SubmitStream schedules count arrivals from the generator.
func (s *System) SubmitStream(arrivals workload.Arrivals, gen *workload.Generator, count int) {
	workload.Stream(s.Eng, arrivals, gen, count, s.Submit)
}

// Run drives the simulation until no work remains, flushing any pending
// batches first.
func (s *System) Run() {
	if s.Batcher != nil {
		// Flush at the point all arrivals have been injected: run the
		// event queue, flush leftovers, and drain again.
		s.drain()
		s.Batcher.Flush()
	}
	s.drain()
	// Tasks still parked in the failover wait queue when the event queue
	// empties would never run (the outage outlasted the workload): the
	// ladder localizes them instead of dropping them.
	for s.Scheduler.FlushFailover() > 0 {
		s.drain()
	}
}

// drain runs the event queue to empty, interleaving observer samples when
// one is attached.
func (s *System) drain() {
	if s.observer != nil {
		s.observer.drive()
		return
	}
	s.Eng.Run()
}

// Stats returns the scheduler's aggregate statistics.
func (s *System) Stats() *sched.Stats { return s.Scheduler.Stats() }

// Policy returns the configured placement policy name.
func (s *System) Policy() PolicyName { return s.cfg.Policy }

// EnableSpans attaches a span recorder to the scheduler's causal hook
// points and returns it. Call before Run. Idempotent: a second call
// returns the recorder already installed. Span recording is
// observability only — it adds no events and draws no randomness, so
// enabling it never changes simulated results (TestSpansAreInert).
func (s *System) EnableSpans() *trace.SpanRecorder {
	if s.spanRec == nil {
		s.spanRec = trace.NewSpanRecorder()
		s.spanRec.SetMeta("run", string(s.cfg.Policy))
		s.Scheduler.SetTracer(s.spanRec)
		if s.adapt != nil {
			s.adapt.SetTracer(s.spanRec)
		}
		if s.Jobs != nil {
			s.Jobs.SetTracer(s.spanRec)
		}
	}
	return s.spanRec
}

// EnableRecords attaches a per-task record recorder behind the
// scheduler's outcome hook, sets Recorder, and returns it. Call before
// the first Submit. Idempotent: a second call returns the recorder
// already installed. The recorder retains one record per settled task,
// so it is opt-in; like spans it is observability only and never changes
// simulated results.
func (s *System) EnableRecords() *trace.Recorder {
	if s.Recorder == nil {
		s.Recorder = &trace.Recorder{}
		s.Scheduler.ChainOutcomeHook(s.Recorder.Hook())
	}
	return s.Recorder
}

// Adapt returns the adaptive-layer controller, or nil when the
// configuration did not enable one.
func (s *System) Adapt() *adapt.Controller { return s.adapt }

// SpanSet returns the causal spans recorded so far, or nil when
// EnableSpans was never called.
func (s *System) SpanSet() *trace.SpanSet {
	if s.spanRec == nil {
		return nil
	}
	return s.spanRec.Set()
}

// Platform returns the serverless platform, or nil.
func (s *System) Platform() *serverless.Platform {
	if s.Env.Functions == nil {
		return nil
	}
	return s.Env.Functions.Platform()
}

// InfrastructureCostUSD returns money that accrued outside per-task bills:
// edge provisioning, VM instance-hours, and serverless provisioned
// concurrency capacity fees up to the current virtual time.
func (s *System) InfrastructureCostUSD() float64 {
	total := 0.0
	if s.Env.Edge != nil {
		total += s.Env.Edge.ProvisionedCostUSD()
	}
	if s.Env.VM != nil {
		total += s.Env.VM.AccruedCostUSD()
	}
	if p := s.Platform(); p != nil {
		total += p.ProvisionedCostUSD()
	}
	return total
}
