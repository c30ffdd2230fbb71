// Package adapt closes the control loop the offline planner leaves open:
// everything in internal/alloc and internal/sched decides from a static
// demand model, but real regimes drift — backends degrade, cold-start
// distributions shift, workloads surge. This package learns online from
// settled task outcomes:
//
//   - a contextual bandit (UCB1 or epsilon-greedy) places tasks over the
//     available substrates, context-bucketed by app and input-size decile,
//     rewarded by a normalized cost/latency blend;
//   - an online memory tuner re-runs the resource allocator against
//     observed exec and cold-start statistics and re-deploys the
//     serverless function when the optimum moves past a hysteresis band;
//   - a Page–Hinkley drift detector per backend resets the bandit's arm
//     and forces a re-tune when a regime change is detected;
//   - an admission controller bounds in-flight offloads and localizes
//     traffic under backpressure or failure streaks.
//
// The Controller implements sched.Policy plus the scheduler's outcome
// feedback hook; it can also wrap a static policy to add only the
// tuning/drift/admission layers. All randomness comes from one rng.Source
// split handed in at construction, so runs stay byte-identical at any
// parallelism.
package adapt

import (
	"fmt"

	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/sim"
	"offload/internal/trace"
)

// Config is the Adapt block of core.Config: reward shaping for the bandit
// plus the optional tuner, drift and admission sub-systems.
type Config struct {
	// Epsilon is the epsilon-greedy exploration rate. Default 0.1.
	Epsilon float64
	// UCBC scales the UCB1 confidence radius. Default 1.
	UCBC float64

	// Reward shaping: a settled task scores
	//   completion/LatencyScaleS + spendUSD/CostScaleUSD
	// (spend = money + energy priced at EnergyUSDPerJ) and earns reward
	// 1/(1+score); failures earn 0. Defaults: 30 s, $0.001, 2.3e-5 $/J.
	LatencyScaleS float64
	CostScaleUSD  float64
	EnergyUSDPerJ float64

	// MemoryTune enables the online serverless memory tuner.
	MemoryTune bool
	// TuneAlpha smooths the per-app observation EWMAs. Default 0.3.
	TuneAlpha float64
	// TuneHysteresis is the relative memory move that justifies a
	// re-deploy. Default 0.25.
	TuneHysteresis float64
	// TuneMinObservations delays the first re-tune. Default 5.
	TuneMinObservations int
	// TuneEvery spaces re-tune attempts (in per-app outcomes). Default 5.
	TuneEvery int

	// Drift, when non-nil, runs a Page–Hinkley detector per backend.
	Drift *DriftConfig
	// Admission, when non-nil, enables the admission controller.
	Admission *AdmissionConfig
}

func (c Config) withDefaults() Config {
	if c.Epsilon <= 0 {
		c.Epsilon = 0.1
	}
	if c.UCBC <= 0 {
		c.UCBC = 1
	}
	if c.LatencyScaleS <= 0 {
		c.LatencyScaleS = 30
	}
	if c.CostScaleUSD <= 0 {
		c.CostScaleUSD = 0.001
	}
	if c.EnergyUSDPerJ <= 0 {
		c.EnergyUSDPerJ = 2.3e-5
	}
	if c.TuneAlpha <= 0 {
		c.TuneAlpha = 0.3
	}
	if c.TuneHysteresis <= 0 {
		c.TuneHysteresis = 0.25
	}
	if c.TuneMinObservations <= 0 {
		c.TuneMinObservations = 5
	}
	if c.TuneEvery <= 0 {
		c.TuneEvery = 5
	}
	return c
}

// DefaultConfig returns the fully-enabled adaptive layer: bandit reward
// defaults, memory tuning, drift detection and admission control with the
// parameters E19 uses.
func DefaultConfig() Config {
	return Config{
		MemoryTune: true,
		Drift:      &DriftConfig{},
		Admission:  &AdmissionConfig{MaxInFlight: 64, MaxQueueDepth: 32, FailureStreak: 3, Cooldown: 30},
	}.withDefaults()
}

// Control-plane event kinds emitted to the span recorder.
const (
	EventDriftReset = "drift_reset" // detector fired; subject = backend
	EventResize     = "resize"      // tuner re-deployed; subject = app
	EventLocalize   = "localize"    // admission breaker tripped; subject = reason
	EventRegion     = "region"      // failover region transition; subject = region:down|up
)

// Controller is the adaptive layer as a placement policy. With a bandit
// it decides placements itself; wrapping a static policy (see Wrap) it
// delegates decisions and adds tuning, drift response and admission
// control around them.
type Controller struct {
	cfg    Config
	name   string
	inner  sched.Policy // nil when a bandit decides
	bandit *bandit      // nil when wrapping a static policy
	tuner  *tuner       // nil unless MemoryTune
	adm    *admission   // nil unless Admission
	drift  map[model.Placement]*PageHinkley

	tr *trace.SpanRecorder

	decisions    map[model.Placement]uint64
	last         model.Placement
	haveLast     bool
	switches     uint64
	driftResets  uint64
	armsCleared  uint64
	regionResets uint64
}

var _ sched.Policy = (*Controller)(nil)
var _ sched.FeedbackPolicy = (*Controller)(nil)
var _ sched.RegionAwarePolicy = (*Controller)(nil)

// NewBandit returns a bandit-driven controller. src feeds every random
// draw the controller will ever make; both kinds consume the source
// identically at construction, so switching kinds leaves sibling streams
// untouched.
func NewBandit(kind BanditKind, cfg Config, src *rng.Source) (*Controller, error) {
	if src == nil {
		return nil, fmt.Errorf("adapt: bandit without an rng source")
	}
	cfg = cfg.withDefaults()
	name := "bandit-ucb"
	if kind == BanditGreedy {
		name = "bandit-greedy"
	}
	c := newController(cfg, name)
	c.bandit = newBandit(kind, cfg.Epsilon, cfg.UCBC, src)
	return c, nil
}

// Wrap returns a controller that delegates placement to inner and layers
// the configured tuning, drift detection and admission control on top.
func Wrap(inner sched.Policy, cfg Config) (*Controller, error) {
	if inner == nil {
		return nil, fmt.Errorf("adapt: wrapping a nil policy")
	}
	c := newController(cfg.withDefaults(), inner.Name()+"+adapt")
	c.inner = inner
	return c, nil
}

func newController(cfg Config, name string) *Controller {
	if cfg.Drift != nil {
		d := cfg.Drift.withDefaults()
		cfg.Drift = &d
	}
	c := &Controller{
		cfg:       cfg,
		name:      name,
		decisions: make(map[model.Placement]uint64),
		drift:     make(map[model.Placement]*PageHinkley),
	}
	if cfg.MemoryTune {
		c.tuner = newTuner(cfg)
	}
	if cfg.Admission != nil {
		c.adm = newAdmission(*cfg.Admission)
	}
	return c
}

// SetTracer attaches (or detaches, with nil) the span recorder that
// receives the controller's control-plane events. The recorder is passive:
// the controller behaves identically with or without one.
func (c *Controller) SetTracer(t *trace.SpanRecorder) { c.tr = t }

// Name implements sched.Policy.
func (c *Controller) Name() string { return c.name }

// Decide implements sched.Policy: bandit (or inner) placement, then the
// admission override.
func (c *Controller) Decide(task *model.Task, env *sched.Env, pred sched.Predictor) model.Placement {
	var p model.Placement
	if c.bandit != nil {
		p = c.bandit.decide(contextKey(task), env.Available())
	} else {
		p = c.inner.Decide(task, env, pred)
	}
	if c.adm != nil && p != model.PlaceLocal {
		if shed, _ := c.adm.shouldShed(env, env.Eng.Now()); shed {
			p = model.PlaceLocal
			c.adm.sheds++
		}
	}
	c.decisions[p]++
	if c.haveLast && p != c.last {
		c.switches++
	}
	c.last, c.haveLast = p, true
	if c.adm != nil {
		c.adm.noteDispatch(task.ID, p)
	}
	return p
}

// ObserveOutcome implements sched.FeedbackPolicy: every settled outcome
// feeds the admission ledger, the per-backend drift detector, the bandit
// reward and the memory tuner.
func (c *Controller) ObserveOutcome(o model.Outcome, env *sched.Env) {
	now := env.Eng.Now()
	if c.adm != nil && c.adm.noteOutcome(o, now) {
		c.event(EventLocalize, o.Placement.String(), now)
	}
	if c.cfg.Drift != nil && o.Task != nil && o.Placement != model.PlaceUnknown {
		c.feedDrift(o, now)
	}
	if c.bandit != nil && o.Task != nil {
		c.bandit.observe(contextKey(o.Task), o.Placement, c.reward(o))
	}
	if c.tuner != nil {
		if mem := c.tuner.observe(o, env); mem != 0 {
			c.event(EventResize, fmt.Sprintf("%s:%dMB", o.Task.App, mem>>20), now)
		}
	}
}

// feedDrift runs the backend's Page–Hinkley detector on the outcome's
// completion time (failures observe the configured penalty) and, on
// detection, resets the detector, forgets the backend's bandit arm and
// forces a re-tune.
func (c *Controller) feedDrift(o model.Outcome, now sim.Time) {
	d, ok := c.drift[o.Placement]
	if !ok {
		d = NewPageHinkley(*c.cfg.Drift)
		c.drift[o.Placement] = d
	}
	v := float64(o.Finished.Sub(o.Started))
	if o.Failed {
		v = c.cfg.Drift.FailurePenaltyS
	}
	if !d.Observe(v) {
		return
	}
	d.Reset()
	c.driftResets++
	if c.bandit != nil {
		c.armsCleared += uint64(c.bandit.resetArm(o.Placement))
	}
	if c.tuner != nil {
		c.tuner.forceRetune = true
	}
	c.event(EventDriftReset, o.Placement.String(), now)
}

// ObserveRegion implements sched.RegionAwarePolicy: a region dying is a
// regime change far sharper than per-outcome drift statistics can see, so
// the controller resets every dead placement's bandit arm and drift
// detector immediately — the bandit re-learns from the survivors and
// rediscovers the region after recovery instead of trusting stale means.
// Recovery resets the arms again: post-incident latencies are a new
// regime too.
func (c *Controller) ObserveRegion(region string, placements []model.Placement, down bool, now sim.Time) {
	c.regionResets++
	for _, p := range placements {
		if c.bandit != nil {
			c.armsCleared += uint64(c.bandit.resetArm(p))
		}
		if d, ok := c.drift[p]; ok {
			d.Reset()
		}
	}
	if c.tuner != nil {
		c.tuner.forceRetune = true
	}
	status := ":up"
	if down {
		status = ":down"
	}
	c.event(EventRegion, region+status, now)
}

// RegionResets returns how many region transitions the controller
// received from the failover layer.
func (c *Controller) RegionResets() uint64 { return c.regionResets }

// reward maps a settled outcome into [0, 1]: failures earn nothing;
// otherwise the normalized latency+spend score is squashed by 1/(1+score).
func (c *Controller) reward(o model.Outcome) float64 {
	if o.Failed {
		return 0
	}
	spend := o.CostUSD + o.EnergyMilliJ/1000*c.cfg.EnergyUSDPerJ
	score := float64(o.Finished.Sub(o.Started))/c.cfg.LatencyScaleS + spend/c.cfg.CostScaleUSD
	return 1 / (1 + score)
}

func (c *Controller) event(kind, subject string, at sim.Time) {
	if c.tr != nil {
		c.tr.AdaptEvent(kind, subject, at)
	}
}

// Switches returns how many consecutive decisions changed placement.
func (c *Controller) Switches() uint64 { return c.switches }

// DriftResets returns how many times a drift detector fired.
func (c *Controller) DriftResets() uint64 { return c.driftResets }

// ArmsCleared returns how many non-empty bandit cells drift resets wiped.
func (c *Controller) ArmsCleared() uint64 { return c.armsCleared }

// Sheds returns how many remote decisions admission control localized.
func (c *Controller) Sheds() uint64 {
	if c.adm == nil {
		return 0
	}
	return c.adm.Sheds()
}

// AdmissionTrips returns how many times the failure-streak breaker opened.
func (c *Controller) AdmissionTrips() uint64 {
	if c.adm == nil {
		return 0
	}
	return c.adm.Trips()
}

// Resizes returns how many re-deployments the memory tuner triggered.
func (c *Controller) Resizes() uint64 {
	if c.tuner == nil {
		return 0
	}
	return c.tuner.Resizes()
}

// Arms returns the bandit's learned per-arm state (nil when wrapping a
// static policy).
func (c *Controller) Arms() []ArmSnapshot {
	if c.bandit == nil {
		return nil
	}
	return c.bandit.snapshot()
}

// FillRegistry exports the controller's decision and learning state as
// adapt_* metrics.
func (c *Controller) FillRegistry(reg *metrics.Registry) {
	for _, p := range []model.Placement{model.PlaceLocal, model.PlaceEdge, model.PlaceFunction, model.PlaceVM} {
		if n, ok := c.decisions[p]; ok {
			reg.Counter("adapt_decisions", metrics.L("arm", p.String())).Add(float64(n))
		}
	}
	reg.Counter("adapt_switches").Add(float64(c.switches))
	reg.Counter("adapt_drift_resets").Add(float64(c.driftResets))
	reg.Counter("adapt_arms_cleared").Add(float64(c.armsCleared))
	if c.regionResets > 0 {
		reg.Counter("adapt_region_resets").Add(float64(c.regionResets))
	}
	reg.Counter("adapt_sheds").Add(float64(c.Sheds()))
	reg.Counter("adapt_admission_trips").Add(float64(c.AdmissionTrips()))
	reg.Counter("adapt_resizes").Add(float64(c.Resizes()))
	for _, a := range c.Arms() {
		reg.Counter("adapt_arm_pulls", metrics.L("arm", a.Placement.String())).Add(float64(a.Pulls))
		reg.Gauge("adapt_arm_mean_reward", metrics.L("arm", a.Placement.String())).Set(a.MeanReward)
	}
}
