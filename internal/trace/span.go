package trace

import (
	"math"
	"sort"

	"offload/internal/model"
	"offload/internal/sim"
)

// Span names. A task trace is a tree: one root "task" span, one "attempt"
// span per dispatch (retries and hedges included), and phase spans under
// each attempt reconstructing where the attempt's wall time went. Gap
// spans ("submit", "backoff") hang off the root and cover the intervals
// no attempt was in flight. Zero-width event spans ("breaker",
// "hedge_cancel") mark control-plane transitions.
const (
	SpanTask    = "task"
	SpanAttempt = "attempt"
	SpanJob     = "job" // DAG job root; its children are the node task spans

	PhaseSubmit    = "submit"     // decided but no attempt launched yet (batching, shifting)
	PhaseUplink    = "uplink"     // input bytes in flight to the execution site
	PhaseQueue     = "queue"      // waiting for a free unit at the substrate
	PhaseColdStart = "cold_start" // environment provisioning
	PhaseExec      = "exec"       // computation
	PhaseDownlink  = "downlink"   // output bytes returning to the device
	PhaseBackoff   = "backoff"    // between attempts: retry backoff / breaker wait
	PhaseOther     = "other"      // attempt time the outcome could not decompose

	EventBreaker     = "breaker"      // Status carries "from>to"
	EventHedgeCancel = "hedge_cancel" // armed hedge timer cancelled unfired
	EventAdapt       = "adapt"        // adaptive-layer decision; Status carries the kind
	EventRegion      = "region"       // region health transition; Status carries "down"/"up"
	EventDegrade     = "degrade"      // ladder rung change; Status carries "from>to"
	EventRehome      = "rehome"       // task re-dispatched across regions; Status carries "from>to"
)

// Attempt statuses: how one dispatch of a task ended.
const (
	StatusWin     = "win"     // this attempt's result settled the task
	StatusLose    = "lose"    // completed fine, but the task was already decided
	StatusRetry   = "retry"   // transient failure, re-dispatched
	StatusFailed  = "failed"  // terminal failure
	StatusTimeout = "timeout" // abandoned by the per-attempt timeout
)

// Task root statuses.
const (
	StatusOK     = "ok"
	StatusMissed = "missed"
)

// Fault classifications recorded on failed attempt spans.
const (
	FaultTransient = "transient"
	FaultFatal     = "fatal"
)

// Span is one node of a task's causal trace, flattened for serialisation.
// Times are simulated seconds. Spans are comparable, so tests and the
// fuzz round trip can use ==.
type Span struct {
	ID     uint64 `json:"id"`
	Trace  uint64 `json:"trace,omitempty"`  // task ID; 0 for run-scoped events
	Parent uint64 `json:"parent,omitempty"` // 0 for roots and run-scoped events

	Name    string  `json:"name"`
	Backend string  `json:"backend,omitempty"` // placement the span ran against
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`

	Attempt int    `json:"attempt,omitempty"` // 1-based dispatch number within the task
	Hedge   bool   `json:"hedge,omitempty"`
	Status  string `json:"status,omitempty"`
	Fault   string `json:"fault,omitempty"`

	CostUSD float64 `json:"cost_usd,omitempty"`
}

// DurationS returns the span's width in simulated seconds.
func (s Span) DurationS() float64 { return s.End - s.Start }

// SpanRecorder is the one span tracer: the scheduler, the regional
// failover layer, the DAG orchestrator and the adaptive controller all
// report their causal hook points to it directly. It reconstructs
// per-attempt phase spans from each attempt's outcome and synthesizes the
// submit/backoff gaps when the task settles. IDs are assigned in event
// order, so a recorder driven by a deterministic simulation produces
// byte-identical output every run.
//
// The recorder is passive: it records, but never schedules events, draws
// randomness or mutates tasks, so attaching one never changes simulated
// results (TestSpansAreInert enforces this). AttemptStart returns an
// attempt handle the scheduler threads back into AttemptEnd and
// AttemptCost, so overlapping attempts of one task (hedges) stay
// distinguishable.
type SpanRecorder struct {
	run    string
	policy string

	spans  []Span
	nextID uint64

	byID     map[uint64]int      // attempt span id → index in spans
	roots    map[uint64]uint64   // trace → reserved root span id
	attempts map[uint64]int      // trace → attempts started so far
	byTrace  map[uint64][]uint64 // trace → attempt span ids, start order
	adopted  map[uint64]uint64   // task trace → owning job trace (AdoptTrace)

	// freeIDs pools the per-trace attempt-id slices: a settled task's
	// slice is recycled for the next task instead of allocating, so
	// steady-state recording stops paying one slice per task.
	freeIDs [][]uint64

	// Bounded mode (see Bound): limit > 0 caps retained spans by
	// compacting away the oldest settled-trace spans; dropped counts the
	// casualties.
	limit   int
	dropped uint64
}

// NewSpanRecorder returns an empty recorder.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{
		byID:     make(map[uint64]int),
		roots:    make(map[uint64]uint64),
		attempts: make(map[uint64]int),
		byTrace:  make(map[uint64][]uint64),
		adopted:  make(map[uint64]uint64),
	}
}

// SetMeta names the run (e.g. the experiment cell) and the policy that
// produced it; both land in the export header.
func (r *SpanRecorder) SetMeta(run, policy string) {
	r.run = run
	r.policy = policy
}

// Bound puts the recorder into bounded mode: it retains at most roughly
// 2×maxSpans spans, compacting away the oldest settled-task spans once
// the buffer fills (spans of still-open tasks are always kept, whatever
// their age). Million-task runs then record at a flat memory footprint
// instead of retaining every span tree. Dropped reports how many spans
// compaction discarded. maxSpans must be positive; call before recording.
//
// The default (unbounded) recorder retains everything and its output is
// unaffected by this feature existing.
func (r *SpanRecorder) Bound(maxSpans int) {
	if maxSpans <= 0 {
		panic("trace: Bound with non-positive span limit")
	}
	r.limit = maxSpans
}

// Dropped returns how many spans bounded-mode compaction has discarded.
func (r *SpanRecorder) Dropped() uint64 { return r.dropped }

// compact drops the oldest settled-trace spans down to the bound,
// keeping every span of a still-open trace and the newest limit spans.
// It runs only when bounded mode is on and the buffer hit 2×limit, so
// the cost amortises to O(1) per recorded span.
func (r *SpanRecorder) compact() {
	keepFrom := len(r.spans) - r.limit
	w := 0
	for i := range r.spans {
		sp := r.spans[i]
		_, open := r.roots[sp.Trace]
		if i >= keepFrom || (sp.Trace != 0 && open) {
			r.spans[w] = sp
			w++
		} else {
			r.dropped++
		}
	}
	r.spans = r.spans[:w]
	// Surviving spans moved; re-anchor the open attempts' index map.
	clear(r.byID)
	for i := range r.spans {
		sp := &r.spans[i]
		if sp.Name == SpanAttempt {
			if _, open := r.roots[sp.Trace]; open {
				r.byID[sp.ID] = i
			}
		}
	}
}

// Len returns the number of spans recorded so far.
func (r *SpanRecorder) Len() int { return len(r.spans) }

// Set returns the recorded spans with the run metadata attached. The
// span slice is a copy.
func (r *SpanRecorder) Set() *SpanSet {
	cp := make([]Span, len(r.spans))
	copy(cp, r.spans)
	return &SpanSet{Run: r.run, Policy: r.policy, Spans: cp}
}

func (r *SpanRecorder) id() uint64 {
	r.nextID++
	return r.nextID
}

// rootFor reserves (or returns) the root span ID for a trace, so attempt
// spans can point at their parent before the root itself is appended.
func (r *SpanRecorder) rootFor(trace uint64) uint64 {
	if id, ok := r.roots[trace]; ok {
		return id
	}
	id := r.id()
	r.roots[trace] = id
	return id
}

// AttemptStart opens a span for one dispatch of the task at the
// placement and returns its handle.
func (r *SpanRecorder) AttemptStart(task *model.Task, placement model.Placement, hedge bool, at sim.Time) uint64 {
	trace := uint64(task.ID)
	root := r.rootFor(trace)
	r.attempts[trace]++
	id := r.id()
	r.byID[id] = len(r.spans)
	ids, ok := r.byTrace[trace]
	if !ok && len(r.freeIDs) > 0 {
		// First attempt of this trace: adopt a settled trace's slice
		// instead of growing a fresh one.
		ids = r.freeIDs[len(r.freeIDs)-1]
		r.freeIDs = r.freeIDs[:len(r.freeIDs)-1]
	}
	r.byTrace[trace] = append(ids, id)
	r.spans = append(r.spans, Span{
		ID: id, Trace: trace, Parent: root,
		Name: SpanAttempt, Backend: placement.String(),
		Start: float64(at), End: float64(at),
		Attempt: r.attempts[trace], Hedge: hedge,
	})
	return id
}

// AttemptEnd closes the attempt with its outcome and status (one of the
// Status* constants) and decomposes it into phase spans.
func (r *SpanRecorder) AttemptEnd(id uint64, o model.Outcome, status string, at sim.Time) {
	idx, ok := r.byID[id]
	if !ok {
		return
	}
	sp := &r.spans[idx]
	sp.End = float64(at)
	sp.Status = status
	sp.CostUSD += o.CostUSD
	if o.Failed && o.Exec.Err != nil {
		if model.Transient(o.Exec.Err) {
			sp.Fault = FaultTransient
		} else {
			sp.Fault = FaultFatal
		}
	}
	if status != StatusTimeout {
		// A timed-out attempt's synthetic outcome says nothing about where
		// the straggler was stuck; leave it undecomposed.
		r.emitPhases(*sp, o)
	}
}

// AttemptCost folds money billed by an attempt after it was already
// closed (a timed-out attempt's zombie completion).
func (r *SpanRecorder) AttemptCost(id uint64, costUSD float64) {
	if idx, ok := r.byID[id]; ok {
		r.spans[idx].CostUSD += costUSD
	}
}

// emitPhases reconstructs the attempt's timeline from its outcome:
// uplink → queue → cold_start → exec → downlink, emitting only phases
// with positive width.
func (r *SpanRecorder) emitPhases(a Span, o model.Outcome) {
	add := func(name string, start, end float64) {
		if !(end > start) || math.IsNaN(start) || math.IsNaN(end) {
			return
		}
		r.spans = append(r.spans, Span{
			ID: r.id(), Trace: a.Trace, Parent: a.ID,
			Name: name, Backend: a.Backend,
			Start: start, End: end,
			Attempt: a.Attempt, Hedge: a.Hedge,
		})
	}
	up := float64(o.UplinkTime)
	add(PhaseUplink, a.Start, a.Start+up)
	// The substrate report places queue wait and cold start at the front
	// of [Exec.Start, Exec.End]; the remainder is computation.
	es, ee := float64(o.Exec.Start), float64(o.Exec.End)
	if ee > 0 || es > 0 {
		q, c := float64(o.Exec.QueueWait), float64(o.Exec.ColdStart)
		add(PhaseQueue, es, es+q)
		add(PhaseColdStart, es+q, es+q+c)
		add(PhaseExec, es+q+c, ee)
		add(PhaseDownlink, ee, ee+float64(o.DownlinkTime))
	}
}

// BreakerTransition records a circuit-breaker state change on a backend
// as a zero-width event span; Status carries "from>to".
func (r *SpanRecorder) BreakerTransition(placement model.Placement, from, to string, at sim.Time) {
	r.spans = append(r.spans, Span{
		ID: r.id(), Name: EventBreaker, Backend: placement.String(),
		Start: float64(at), End: float64(at),
		Status: from + ">" + to,
	})
}

// AdaptEvent records a control-plane decision of the adaptive layer
// (internal/adapt) as a zero-width run-scoped event span: Status carries
// the decision kind (drift_reset, resize, localize), Backend its subject.
func (r *SpanRecorder) AdaptEvent(kind, subject string, at sim.Time) {
	r.spans = append(r.spans, Span{
		ID: r.id(), Name: EventAdapt, Backend: subject,
		Start: float64(at), End: float64(at),
		Status: kind,
	})
}

// RegionTransition records a region going down or coming back up as a
// zero-width run-scoped event span: Backend carries the region name, Status "down" or "up".
func (r *SpanRecorder) RegionTransition(region string, down bool, at sim.Time) {
	status := "up"
	if down {
		status = "down"
	}
	r.spans = append(r.spans, Span{
		ID: r.id(), Name: EventRegion, Backend: region,
		Start: float64(at), End: float64(at),
		Status: status,
	})
}

// DegradationChange records the graceful-degradation ladder moving
// between rungs: a zero-width run-scoped event span whose Status carries
// "from>to" rung names.
func (r *SpanRecorder) DegradationChange(from, to string, at sim.Time) {
	r.spans = append(r.spans, Span{
		ID: r.id(), Name: EventDegrade,
		Start: float64(at), End: float64(at),
		Status: from + ">" + to,
	})
}

// TaskRehomed records a task re-dispatched from a dead region's placement
// to a surviving one: a zero-width span on the task's trace whose Status
// carries the "from>to" placements.
func (r *SpanRecorder) TaskRehomed(task model.TaskID, from, to model.Placement, at sim.Time) {
	trace := uint64(task)
	r.spans = append(r.spans, Span{
		ID: r.id(), Trace: trace, Parent: r.rootFor(trace),
		Name:  EventRehome,
		Start: float64(at), End: float64(at),
		Status: from.String() + ">" + to.String(),
	})
}

// HedgeCanceled records an armed hedge timer dismissed unfired.
func (r *SpanRecorder) HedgeCanceled(task model.TaskID, at sim.Time) {
	trace := uint64(task)
	r.spans = append(r.spans, Span{
		ID: r.id(), Trace: trace, Parent: r.rootFor(trace),
		Name:  EventHedgeCancel,
		Start: float64(at), End: float64(at),
	})
}

// TaskDone records the task's settled end-to-end outcome: it appends the root span and the
// submit/backoff gaps — the sub-intervals of [Started, Finished] during
// which no attempt was in flight.
func (r *SpanRecorder) TaskDone(o model.Outcome, at sim.Time) {
	if o.Task == nil {
		return
	}
	trace := uint64(o.Task.ID)
	root := r.rootFor(trace)
	start, end := float64(o.Started), float64(o.Finished)

	status := StatusOK
	switch {
	case o.Failed:
		status = StatusFailed
	case o.MissedDeadline():
		status = StatusMissed
	}

	// A task adopted under a DAG job parents its root span there; the job
	// root's ID is reserved now and materialises at JobDone.
	var parent uint64
	if job, ok := r.adopted[trace]; ok {
		parent = r.rootFor(job)
		delete(r.adopted, trace)
	}

	r.emitGaps(trace, root, start, end)
	r.spans = append(r.spans, Span{
		ID: root, Trace: trace, Parent: parent,
		Name: SpanTask, Backend: o.Placement.String(),
		Start: start, End: end,
		Attempt: o.Attempts, Status: status,
		CostUSD: o.CostUSD,
	})

	// The task settled and every attempt drained (the scheduler only
	// reports drained tasks), so its bookkeeping can go. The attempt-id
	// slice returns to the pool for the next trace.
	if ids, ok := r.byTrace[trace]; ok {
		for _, id := range ids {
			delete(r.byID, id)
		}
		r.freeIDs = append(r.freeIDs, ids[:0])
	}
	delete(r.byTrace, trace)
	delete(r.roots, trace)
	delete(r.attempts, trace)

	if r.limit > 0 && len(r.spans) > 2*r.limit {
		r.compact()
	}
}

// AdoptTrace parents the task's future root span under the DAG job's root
// span instead of letting it stand alone. Call before the task settles.
func (r *SpanRecorder) AdoptTrace(task model.TaskID, job uint64) {
	r.adopted[uint64(task)] = job
}

// JobDone records the settled DAG job: it appends the job's root span — the
// parent every adopted node task span points at — closing the job trace.
func (r *SpanRecorder) JobDone(job uint64, app string, start, end sim.Time, status string, costUSD float64) {
	root := r.rootFor(job)
	r.spans = append(r.spans, Span{
		ID: root, Trace: job,
		Name: SpanJob, Backend: app,
		Start: float64(start), End: float64(end),
		Status: status, CostUSD: costUSD,
	})
	delete(r.roots, job)
	if r.limit > 0 && len(r.spans) > 2*r.limit {
		r.compact()
	}
}

// MergeSets combines spans from several recorders into one SpanSet in a
// canonical order, independent of how work was partitioned across the
// recorders. The sharded fleet records each shard's spans on its own
// recorder (recorders are single-threaded) and merges at the end; for
// the merged output to be byte-identical at every shard count, each
// trace (task) must be recorded wholly by one recorder, and trace IDs
// must not depend on the partition — both hold for per-UE task IDs.
//
// Ordering: spans sort by trace ID, and within a trace by their recorder
// position (one trace, one recorder, so that position is the recording
// order the serial run would have produced). Span IDs are renumbered
// densely in the canonical order, with parent links rewritten to match.
// Trace-0 (run-scoped event) spans order by start time, then input-set
// position — deterministic, but only partition-independent when such
// events are absent, which the sharded fleet's configuration gate
// guarantees.
func MergeSets(run, policy string, sets ...*SpanSet) *SpanSet {
	type entry struct {
		sp  Span
		set int
		pos int
	}
	var entries []entry
	for si, s := range sets {
		if s == nil {
			continue
		}
		for pi, sp := range s.Spans {
			entries = append(entries, entry{sp: sp, set: si, pos: pi})
		}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := &entries[i], &entries[j]
		if a.sp.Trace != b.sp.Trace {
			return a.sp.Trace < b.sp.Trace
		}
		if a.set != b.set {
			if a.sp.Start != b.sp.Start {
				return a.sp.Start < b.sp.Start
			}
			return a.set < b.set
		}
		return a.pos < b.pos
	})
	// Two passes: IDs first (a root span is appended after its children,
	// so a child's Parent can name an ID that sorts later), then links.
	type key struct {
		set int
		id  uint64
	}
	newID := make(map[key]uint64, len(entries))
	for i := range entries {
		newID[key{entries[i].set, entries[i].sp.ID}] = uint64(i + 1)
	}
	out := make([]Span, len(entries))
	for i := range entries {
		sp := entries[i].sp
		sp.ID = newID[key{entries[i].set, sp.ID}]
		if sp.Parent != 0 {
			sp.Parent = newID[key{entries[i].set, sp.Parent}]
		}
		out[i] = sp
	}
	return &SpanSet{Run: run, Policy: policy, Spans: out}
}

// emitGaps walks the task's attempt intervals in start order and emits a
// gap span for every hole in their union over [start, end]: before the
// first attempt the task was pending submission ("submit"), between
// attempts it was backing off ("backoff").
func (r *SpanRecorder) emitGaps(trace, root uint64, start, end float64) {
	const eps = 1e-9
	cursor := start
	sawAttempt := false
	for _, id := range r.byTrace[trace] {
		idx, ok := r.byID[id]
		if !ok {
			continue
		}
		a := r.spans[idx]
		if a.Start-cursor > eps && a.Start <= end+eps {
			name := PhaseBackoff
			if !sawAttempt {
				name = PhaseSubmit
			}
			r.spans = append(r.spans, Span{
				ID: r.id(), Trace: trace, Parent: root,
				Name: name, Start: cursor, End: math.Min(a.Start, end),
			})
		}
		sawAttempt = true
		if a.End > cursor {
			cursor = a.End
		}
		if cursor >= end {
			return
		}
	}
	if end-cursor > eps {
		name := PhaseBackoff
		if !sawAttempt {
			name = PhaseSubmit
		}
		r.spans = append(r.spans, Span{
			ID: r.id(), Trace: trace, Parent: root,
			Name: name, Start: cursor, End: end,
		})
	}
}
