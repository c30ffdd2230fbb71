package sched

import (
	"fmt"

	"offload/internal/model"
	"offload/internal/sim"
)

// Failover configures the scheduler's regional failover layer: a passive
// per-region health tracker fed by attempt outcomes, canary probes that
// discover recovery, re-homing of tasks whose region died (paying the
// inter-region state-transfer cost), and an optional graceful-degradation
// ladder that escalates from shedding background work to queue-and-wait
// as an incident drags on.
//
// The layer routes; it never executes. Every task still flows through the
// scheduler's normal dispatch, retry and resilience machinery — failover
// only decides where (and when) the next dispatch goes. With failover
// enabled, a task's final retry attempt always runs locally: the
// last-resort rung of the ladder, so a flapping recovery cannot strand a
// task out of attempts.
type Failover struct {
	// Regions names the region each remote placement is homed in.
	// Placements absent from the map are region-less: never tracked,
	// always considered healthy.
	Regions map[model.Placement]string

	// Link prices the inter-region backbone a re-homed task's input state
	// crosses. The zero value takes model.DefaultInterRegionLink.
	Link model.InterRegionLink

	// FailureThreshold consecutive transient failures mark a region down
	// (its mean detection lag is exported as MTTD). Default 3.
	FailureThreshold int

	// ProbeEvery paces the canary probes a down region receives until one
	// succeeds and marks it up again (mean outage length is exported as
	// MTTR). Default 15 s.
	ProbeEvery sim.Duration

	// Ladder enables the graceful-degradation ladder. Nil re-homes every
	// task of a down region (failover only).
	Ladder *Ladder
}

// Ladder is the graceful-degradation state machine, entered when a region
// goes down and escalated by how long the incident has lasted:
//
//	healthy → shed-low → localize-critical → queue-and-wait
//
// Each rung adds a behaviour on top of re-homing: at shed-low,
// low-priority tasks are parked in the wait queue instead of consuming
// surviving capacity; at localize-critical, critical tasks run locally
// instead of gambling on the backbone; at queue-and-wait, normal tasks
// park too and only critical work still executes (locally). Parked tasks
// re-dispatch in FIFO order the moment a region recovers, or run locally
// when the simulation would otherwise end with them still parked — the
// ladder degrades service, it never drops work. Only a full wait queue
// loses tasks.
type Ladder struct {
	// ShedLowAfter is how long after detection the shed-low rung engages.
	// Default 0 (immediately).
	ShedLowAfter sim.Duration
	// LocalizeAfter is how long after detection the localize-critical rung
	// engages. Default 30 s.
	LocalizeAfter sim.Duration
	// QueueAfter is how long after detection the queue-and-wait rung
	// engages. Default 120 s.
	QueueAfter sim.Duration
	// MaxQueue bounds the wait queue; overflow is lost. Default 4096.
	MaxQueue int
}

func (l *Ladder) localizeAfter() sim.Duration {
	if l.LocalizeAfter <= 0 {
		return 30
	}
	return l.LocalizeAfter
}

func (l *Ladder) queueAfter() sim.Duration {
	if l.QueueAfter <= 0 {
		return 120
	}
	return l.QueueAfter
}

func (l *Ladder) maxQueue() int {
	if l.MaxQueue <= 0 {
		return 4096
	}
	return l.MaxQueue
}

// Validate reports whether the configuration is usable.
func (f *Failover) Validate() error {
	if len(f.Regions) == 0 {
		return fmt.Errorf("sched: failover without region assignments")
	}
	for p, name := range f.Regions {
		switch p {
		case model.PlaceEdge, model.PlaceFunction, model.PlaceVM:
		default:
			return fmt.Errorf("sched: failover region for non-remote placement %v", p)
		}
		if name == "" {
			return fmt.Errorf("sched: empty region name for placement %v", p)
		}
	}
	if f.Link != (model.InterRegionLink{}) {
		if err := f.Link.Validate(); err != nil {
			return err
		}
	}
	if f.FailureThreshold < 0 {
		return fmt.Errorf("sched: negative failover failure threshold")
	}
	if f.ProbeEvery < 0 {
		return fmt.Errorf("sched: negative failover probe interval")
	}
	if l := f.Ladder; l != nil {
		if l.ShedLowAfter < 0 || l.LocalizeAfter < 0 || l.QueueAfter < 0 || l.MaxQueue < 0 {
			return fmt.Errorf("sched: negative ladder parameter")
		}
	}
	return nil
}

func (f *Failover) failureThreshold() int {
	if f.FailureThreshold > 0 {
		return f.FailureThreshold
	}
	return 3
}

func (f *Failover) probeEvery() sim.Duration {
	if f.ProbeEvery > 0 {
		return f.ProbeEvery
	}
	return 15
}

func (f *Failover) link() model.InterRegionLink {
	if f.Link == (model.InterRegionLink{}) {
		return model.DefaultInterRegionLink()
	}
	return f.Link
}

// DegradationMode is the ladder's current rung.
type DegradationMode int

// The ladder rungs, in escalation order.
const (
	DegradeHealthy DegradationMode = iota
	DegradeShedLow
	DegradeLocalizeCritical
	DegradeQueueAndWait
)

// String returns the rung's name.
func (m DegradationMode) String() string {
	switch m {
	case DegradeHealthy:
		return "healthy"
	case DegradeShedLow:
		return "shed-low"
	case DegradeLocalizeCritical:
		return "localize-critical"
	case DegradeQueueAndWait:
		return "queue-and-wait"
	}
	return fmt.Sprintf("degradation-mode(%d)", int(m))
}

// RegionAwarePolicy is implemented by policies (notably the adaptive
// controller) that want region up/down transitions as context: a region
// going dark is a regime change worth resetting learned state over, long
// before per-outcome drift statistics would notice.
type RegionAwarePolicy interface {
	Policy
	ObserveRegion(region string, placements []model.Placement, down bool, now sim.Time)
}

// FailoverStats counts what the failover layer did to tasks.
type FailoverStats struct {
	Shed      uint64 // distinct low-priority tasks parked by the ladder (drain re-parks don't re-count)
	Queued    uint64 // distinct normal-priority tasks parked by queue-and-wait (or no alternative)
	ReHomed   uint64 // tasks re-dispatched to a surviving region
	Localized uint64 // tasks forced onto the device (critical rung, last resort, flush)
	Lost      uint64 // tasks dropped because the wait queue overflowed
	Probes    uint64 // canary probes sent to down regions

	// StateTransferUSD is the egress money re-homing paid in total.
	StateTransferUSD float64
}

// RegionSnapshot is one region's health ledger at a point in time.
type RegionSnapshot struct {
	Name string
	Down bool
	// Downs counts down transitions; Recoveries counts completed ups.
	Downs      uint64
	Recoveries uint64
	// MTTDSeconds and MTTRSeconds are means over detections/recoveries
	// (zero when none happened yet).
	MTTDSeconds float64
	MTTRSeconds float64
	// DownSeconds is total time spent down, including a still-open outage.
	DownSeconds float64
}

// Availability returns the fraction of the elapsed run the region was up.
func (r RegionSnapshot) Availability(elapsed float64) float64 {
	if elapsed <= 0 {
		return 1
	}
	a := 1 - r.DownSeconds/elapsed
	if a < 0 {
		return 0
	}
	return a
}

// regionHealth is the live tracker behind one RegionSnapshot.
type regionHealth struct {
	name       string
	placements []model.Placement // env placements homed here, canonical order

	down      bool
	streak    int      // consecutive transient failures
	firstFail sim.Time // start of the current failure streak
	downAt    sim.Time

	downs       uint64
	recoveries  uint64
	mttdSum     float64
	mttrSum     float64
	downSeconds float64
}

// waiting is one parked task in the ladder's wait queue.
type waiting struct {
	task      *model.Task
	placement model.Placement // original target, re-routed on drain
}

// failover is the runtime behind WithFailover.
type failover struct {
	s   *Scheduler
	cfg Failover

	regions     []*regionHealth // deterministic order (first appearance over canonical placements)
	byPlacement map[model.Placement]*regionHealth
	remote      []model.Placement // env's remote placements, canonical order

	waitq    []waiting
	draining bool // set while drain re-routes the queue: re-parks must not re-count
	lastRung DegradationMode

	nDown          int
	unionDownStart sim.Time
	unionDownSecs  float64

	probeSeq uint64

	stats FailoverStats
}

// WithFailover enables the regional failover layer. See Failover.
func WithFailover(cfg Failover) Option {
	return func(s *Scheduler) { s.fo = &failover{cfg: cfg} }
}

// initFailover validates the configuration against the environment and
// builds the health trackers; called from New.
func (s *Scheduler) initFailover() error {
	f := s.fo
	if err := f.cfg.Validate(); err != nil {
		return err
	}
	f.s = s
	f.byPlacement = make(map[model.Placement]*regionHealth)
	byName := make(map[string]*regionHealth)
	for _, p := range model.AllPlacements() {
		if p == model.PlaceLocal || !s.envHas(p) {
			continue
		}
		f.remote = append(f.remote, p)
		name, ok := f.cfg.Regions[p]
		if !ok {
			continue
		}
		rh := byName[name]
		if rh == nil {
			rh = &regionHealth{name: name}
			byName[name] = rh
			f.regions = append(f.regions, rh)
		}
		rh.placements = append(rh.placements, p)
		f.byPlacement[p] = rh
	}
	if len(f.regions) == 0 {
		return fmt.Errorf("sched: no failover region maps to an available placement")
	}
	return nil
}

// envHas reports whether the environment serves the placement.
func (s *Scheduler) envHas(p model.Placement) bool {
	switch p {
	case model.PlaceLocal:
		return true
	case model.PlaceEdge:
		return s.env.Edge != nil
	case model.PlaceFunction:
		return s.env.Functions != nil
	case model.PlaceVM:
		return s.env.VM != nil
	}
	return false
}

// HasFailover reports whether the regional failover layer is installed.
func (s *Scheduler) HasFailover() bool { return s.fo != nil }

// FailoverStats returns the failover layer's counters (zero when the
// layer is disabled).
func (s *Scheduler) FailoverStats() FailoverStats {
	if s.fo == nil {
		return FailoverStats{}
	}
	return s.fo.stats
}

// DegradationMode returns the ladder's current rung; DegradeHealthy when
// the layer (or the ladder) is off or every region is up. Read-only:
// safe to sample from an observer.
func (s *Scheduler) DegradationMode() DegradationMode {
	if s.fo == nil {
		return DegradeHealthy
	}
	return s.fo.rungAt(s.env.Eng.Now())
}

// DegradedSeconds returns total simulated time with at least one region
// down, including a still-open incident.
func (s *Scheduler) DegradedSeconds() float64 {
	if s.fo == nil {
		return 0
	}
	total := s.fo.unionDownSecs
	if s.fo.nDown > 0 {
		total += float64(s.env.Eng.Now().Sub(s.fo.unionDownStart))
	}
	return total
}

// FailoverQueueLen returns how many tasks the ladder has parked right now.
func (s *Scheduler) FailoverQueueLen() int {
	if s.fo == nil {
		return 0
	}
	return len(s.fo.waitq)
}

// HealthyRegions returns how many tracked regions are up, and the total.
func (s *Scheduler) HealthyRegions() (healthy, total int) {
	if s.fo == nil {
		return 0, 0
	}
	total = len(s.fo.regions)
	return total - s.fo.nDown, total
}

// RegionSnapshots returns each tracked region's health ledger, in the
// layer's deterministic region order.
func (s *Scheduler) RegionSnapshots() []RegionSnapshot {
	if s.fo == nil {
		return nil
	}
	now := s.env.Eng.Now()
	out := make([]RegionSnapshot, 0, len(s.fo.regions))
	for _, rh := range s.fo.regions {
		snap := RegionSnapshot{
			Name:        rh.name,
			Down:        rh.down,
			Downs:       rh.downs,
			Recoveries:  rh.recoveries,
			DownSeconds: rh.downSeconds,
		}
		if rh.down {
			snap.DownSeconds += float64(now.Sub(rh.downAt))
		}
		if rh.downs > 0 {
			snap.MTTDSeconds = rh.mttdSum / float64(rh.downs)
		}
		if rh.recoveries > 0 {
			snap.MTTRSeconds = rh.mttrSum / float64(rh.recoveries)
		}
		out = append(out, snap)
	}
	return out
}

// FlushFailover dispatches any still-parked tasks locally and returns how
// many it flushed. core.System.Run calls it once the event queue drains,
// so a run that ends mid-incident completes its parked work on the device
// instead of losing it.
func (s *Scheduler) FlushFailover() int {
	if s.fo == nil || len(s.fo.waitq) == 0 {
		return 0
	}
	q := s.fo.waitq
	s.fo.waitq = nil
	for _, w := range q {
		s.fo.stats.Localized++
		s.dispatchDirect(w.task, model.PlaceLocal)
	}
	return len(q)
}

// rungAt computes the ladder rung at time now from how long the oldest
// still-down region has been down. Read-only.
func (f *failover) rungAt(now sim.Time) DegradationMode {
	if f.cfg.Ladder == nil || f.nDown == 0 {
		return DegradeHealthy
	}
	oldest := sim.Time(0)
	first := true
	for _, rh := range f.regions {
		if rh.down && (first || rh.downAt < oldest) {
			oldest = rh.downAt
			first = false
		}
	}
	elapsed := now.Sub(oldest)
	l := f.cfg.Ladder
	switch {
	case elapsed >= l.queueAfter():
		return DegradeQueueAndWait
	case elapsed >= l.localizeAfter():
		return DegradeLocalizeCritical
	case elapsed >= l.ShedLowAfter:
		return DegradeShedLow
	}
	return DegradeHealthy
}

// noteRung emits a degradation span event when the rung moved since last
// observed. Called from the event-driven paths; the rung itself advances
// continuously and is sampled read-only by observers.
func (f *failover) noteRung(now sim.Time) {
	cur := f.rungAt(now)
	if cur == f.lastRung {
		return
	}
	if f.s.tr != nil {
		f.s.tr.DegradationChange(f.lastRung.String(), cur.String(), now)
	}
	f.lastRung = cur
}

// route is the failover layer's dispatch interception: every Dispatch
// (initial, plain-path retry, queue drain) flows through here and comes
// out as a direct dispatch, a deferred re-homed dispatch, a parked task,
// or — on queue overflow — a terminal failure.
func (f *failover) route(task *model.Task, p model.Placement) {
	now := f.s.env.Eng.Now()
	f.noteRung(now)
	// Last-resort localization: the final retry attempt of a remote task
	// runs on the device, which cannot be taken down by a regional fault.
	if p != model.PlaceLocal && f.s.retry.MaxAttempts > 1 &&
		f.s.attempts[task.ID]+1 >= f.s.retry.MaxAttempts {
		f.localize(task)
		return
	}
	rh := f.byPlacement[p]
	if rh == nil || !rh.down {
		f.s.dispatchDirect(task, p)
		return
	}
	rung := f.rungAt(now)
	if f.cfg.Ladder != nil && task.Priority < 0 && rung >= DegradeShedLow {
		f.park(task, p, true)
		return
	}
	alt, hasAlt := f.alternative(p)
	if task.Priority > 0 {
		if rung >= DegradeLocalizeCritical || !hasAlt {
			f.localize(task)
			return
		}
		f.rehome(task, p, alt)
		return
	}
	if f.cfg.Ladder != nil && rung >= DegradeQueueAndWait {
		f.park(task, p, false)
		return
	}
	if hasAlt {
		f.rehome(task, p, alt)
		return
	}
	if f.cfg.Ladder != nil {
		f.park(task, p, false)
		return
	}
	f.localize(task)
}

// alternative returns the first remote placement (canonical order) whose
// region is up, excluding the failed placement itself.
func (f *failover) alternative(failed model.Placement) (model.Placement, bool) {
	for _, p := range f.remote {
		if p == failed {
			continue
		}
		if rh := f.byPlacement[p]; rh != nil && rh.down {
			continue
		}
		return p, true
	}
	return model.PlaceUnknown, false
}

// rehome re-dispatches the task to a surviving region after its input
// state crosses the inter-region link, charging the egress cost to the
// task's sunk spend.
func (f *failover) rehome(task *model.Task, from, to model.Placement) {
	link := f.cfg.link()
	cost := link.TransferCostUSD(task.InputBytes)
	f.s.sunkUSD[task.ID] += cost
	f.stats.StateTransferUSD += cost
	f.stats.ReHomed++
	now := f.s.env.Eng.Now()
	if f.s.tr != nil {
		f.s.tr.TaskRehomed(task.ID, from, to, now)
	}
	f.s.env.Eng.After(link.TransferTime(task.InputBytes), func() {
		f.s.dispatchDirect(task, to)
	})
}

// localize runs the task on the device immediately.
func (f *failover) localize(task *model.Task) {
	f.stats.Localized++
	f.s.dispatchDirect(task, model.PlaceLocal)
}

// park defers the task until a region recovers (FIFO) or the run ends
// (flush). A full queue loses the task.
func (f *failover) park(task *model.Task, p model.Placement, shed bool) {
	max := 4096
	if f.cfg.Ladder != nil {
		max = f.cfg.Ladder.maxQueue()
	}
	if len(f.waitq) >= max {
		f.stats.Lost++
		f.s.fail(task, p, f.s.finish)
		return
	}
	f.waitq = append(f.waitq, waiting{task: task, placement: p})
	if f.draining {
		// A drain re-park: the task was already counted when it first
		// entered the queue. Counting it again would inflate Shed/Queued
		// by one per drain the incident survives, breaking the
		// one-count-per-task identity the tables rely on.
		return
	}
	if shed {
		f.stats.Shed++
	} else {
		f.stats.Queued++
	}
}

// drain re-routes every parked task in FIFO order; called when a region
// recovers. Tasks whose target is still down simply park again — without
// re-incrementing the park counters (see park).
func (f *failover) drain() {
	q := f.waitq
	f.waitq = nil
	f.draining = true
	for _, w := range q {
		f.route(w.task, w.placement)
	}
	f.draining = false
}

// observe feeds one genuine attempt outcome into the health tracker:
// transient failures count against the region, successes count for it,
// and task-caused failures (non-transient) say nothing about the region.
func (f *failover) observe(p model.Placement, failed bool, err error, now sim.Time) {
	rh := f.byPlacement[p]
	if rh == nil {
		return
	}
	if failed && model.Transient(err) {
		f.noteFailure(rh, now)
		return
	}
	if !failed {
		f.noteSuccess(rh, now)
	}
}

func (f *failover) noteFailure(rh *regionHealth, now sim.Time) {
	rh.streak++
	if rh.streak == 1 {
		rh.firstFail = now
	}
	if !rh.down && rh.streak >= f.cfg.failureThreshold() {
		f.markDown(rh, now)
	}
}

func (f *failover) noteSuccess(rh *regionHealth, now sim.Time) {
	rh.streak = 0
	if rh.down {
		f.markUp(rh, now)
	}
}

func (f *failover) markDown(rh *regionHealth, now sim.Time) {
	rh.down = true
	rh.downAt = now
	rh.downs++
	rh.mttdSum += float64(now.Sub(rh.firstFail))
	f.nDown++
	if f.nDown == 1 {
		f.unionDownStart = now
	}
	if rp, ok := f.s.policy.(RegionAwarePolicy); ok {
		rp.ObserveRegion(rh.name, rh.placements, true, now)
	}
	if f.s.tr != nil {
		f.s.tr.RegionTransition(rh.name, true, now)
	}
	f.noteRung(now)
	f.scheduleProbe(rh)
}

func (f *failover) markUp(rh *regionHealth, now sim.Time) {
	rh.down = false
	rh.downSeconds += float64(now.Sub(rh.downAt))
	rh.mttrSum += float64(now.Sub(rh.downAt))
	rh.recoveries++
	f.nDown--
	if f.nDown == 0 {
		f.unionDownSecs += float64(now.Sub(f.unionDownStart))
	}
	if rp, ok := f.s.policy.(RegionAwarePolicy); ok {
		rp.ObserveRegion(rh.name, rh.placements, false, now)
	}
	if f.s.tr != nil {
		f.s.tr.RegionTransition(rh.name, false, now)
	}
	f.noteRung(now)
	f.drain()
}

// probeBase keeps canary task IDs clear of workload task IDs.
const probeBase model.TaskID = 1 << 62

// scheduleProbe arms the next canary probe of a down region. The loop
// runs until a probe succeeds: probes are how a region with no surviving
// traffic (the policy routed everything away) is discovered to be back.
func (f *failover) scheduleProbe(rh *regionHealth) {
	f.s.env.Eng.After(f.cfg.probeEvery(), func() {
		if !rh.down {
			return
		}
		f.probe(rh)
	})
}

// probe sends one canary execution straight to the region's first
// substrate — a control-plane ping that bypasses the device network. A
// transient failure keeps the region down and re-arms the loop; anything
// else marks it up.
func (f *failover) probe(rh *regionHealth) {
	exec, ok := f.probeTarget(rh.placements[0])
	if !ok {
		f.scheduleProbe(rh)
		return
	}
	f.stats.Probes++
	f.probeSeq++
	canary := &model.Task{
		ID:          probeBase + model.TaskID(f.probeSeq),
		App:         "__probe",
		Cycles:      1e6,
		MemoryBytes: 64 * model.MB,
		Submitted:   f.s.env.Eng.Now(),
	}
	exec.Execute(canary, func(rep model.ExecReport) {
		now := f.s.env.Eng.Now()
		if !rh.down {
			return // genuine traffic recovered the region first
		}
		if rep.Err != nil && model.Transient(rep.Err) {
			f.scheduleProbe(rh)
			return
		}
		f.noteSuccess(rh, now)
	})
}

// probeTarget resolves the substrate executor behind a placement.
func (f *failover) probeTarget(p model.Placement) (model.Executor, bool) {
	switch p {
	case model.PlaceEdge:
		if f.s.env.Edge != nil {
			return f.s.env.Edge, true
		}
	case model.PlaceFunction:
		if f.s.env.Functions != nil {
			fn, err := f.s.env.Functions.For(&model.Task{
				App: "__probe", Cycles: 1e6, MemoryBytes: 64 * model.MB,
			}, f.s.pred)
			if err == nil {
				return fn, true
			}
		}
	case model.PlaceVM:
		if f.s.env.VM != nil {
			return f.s.env.VM, true
		}
	}
	return nil, false
}

// retarget is route's lightweight sibling for the resilience layer's
// attempt machinery: it re-points an attempt at a surviving region (or
// the device) synchronously — attempt timeouts and hedges keep their
// semantics — charging the state-transfer egress but folding the
// transfer delay into the attempt itself is left to the backbone model.
func (f *failover) retarget(task *model.Task, p model.Placement) model.Placement {
	rh := f.byPlacement[p]
	if rh == nil || !rh.down {
		return p
	}
	if alt, ok := f.alternative(p); ok {
		cost := f.cfg.link().TransferCostUSD(task.InputBytes)
		f.s.sunkUSD[task.ID] += cost
		f.stats.StateTransferUSD += cost
		f.stats.ReHomed++
		if f.s.tr != nil {
			f.s.tr.TaskRehomed(task.ID, p, alt, f.s.env.Eng.Now())
		}
		return alt
	}
	f.stats.Localized++
	return model.PlaceLocal
}
