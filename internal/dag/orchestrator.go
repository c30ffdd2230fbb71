package dag

import (
	"fmt"
	"math"
	"sort"

	"offload/internal/model"
	"offload/internal/sched"
	"offload/internal/sim"
	"offload/internal/trace"
)

// jobIDShift positions each job's node task IDs in a private range:
// job k owns IDs (k<<jobIDShift)+1 … (k<<jobIDShift)+Len, and k<<jobIDShift
// itself is the job's span trace ID. Jobs are capped at 2^20−1 nodes,
// far above any realistic application graph.
const jobIDShift = 20

// Result is one settled job: when it ran, how long it took, and where
// the time went.
type Result struct {
	Job   *Job
	ID    uint64 // job sequence number; also the job's span trace ID
	Start sim.Time
	End   sim.Time

	Failed bool // a node failed terminally; descendants were skipped

	MakespanS float64 // End − Start

	// CritPath is the observed critical path in execution order, with
	// CritS[i] seconds attributed to CritPath[i]: each node's finish minus
	// its latest-finishing predecessor's. The contributions telescope, so
	// CritTotalS equals MakespanS up to float summation error. Empty for
	// failed jobs.
	CritPath   []NodeID
	CritS      []float64
	CritTotalS float64

	// MeanSlackS is the mean earliest-start slack across nodes: how long
	// each node could have been delayed (under the observed durations)
	// without stretching the makespan. Zero on every critical node.
	MeanSlackS float64

	CostUSD      float64
	EnergyMilliJ float64

	// NodeOutcomes holds each node's scheduler outcome, indexed by NodeID.
	// Skipped nodes (descendants of a failure) have a zero Outcome.
	NodeOutcomes []model.Outcome
}

// MissedDeadline reports whether the job carried a deadline and finished
// after it.
func (r Result) MissedDeadline() bool {
	return r.Job.Deadline() > 0 && sim.Duration(r.MakespanS) > r.Job.Deadline()
}

// Stats aggregates settled jobs.
type Stats struct {
	Jobs   uint64 // settled jobs, failures included
	Failed uint64 // jobs with at least one terminally failed node

	NodesCompleted uint64
	NodesFailed    uint64
	NodesSkipped   uint64 // never released: a predecessor failed

	CostUSD      float64
	EnergyMilliJ float64

	makespans []float64 // succeeded jobs only
	critSum   float64
	slackSum  float64
	maxDrift  float64
}

// MeanMakespanS returns the mean makespan over succeeded jobs.
func (s *Stats) MeanMakespanS() float64 {
	if len(s.makespans) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range s.makespans {
		sum += m
	}
	return sum / float64(len(s.makespans))
}

// P95MakespanS returns the 95th-percentile makespan over succeeded jobs.
func (s *Stats) P95MakespanS() float64 {
	n := len(s.makespans)
	if n == 0 {
		return 0
	}
	cp := make([]float64, n)
	copy(cp, s.makespans)
	sort.Float64s(cp)
	idx := int(math.Ceil(0.95*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return cp[idx]
}

// MeanCritPathS returns the mean summed critical-path seconds per
// succeeded job — MeanMakespanS measured the other way.
func (s *Stats) MeanCritPathS() float64 {
	if len(s.makespans) == 0 {
		return 0
	}
	return s.critSum / float64(len(s.makespans))
}

// MeanSlackS returns the mean per-node earliest-start slack across
// succeeded jobs.
func (s *Stats) MeanSlackS() float64 {
	if len(s.makespans) == 0 {
		return 0
	}
	return s.slackSum / float64(len(s.makespans))
}

// MaxDriftS returns the largest |CritTotalS − MakespanS| seen on any
// succeeded job: the critical-path partition's bookkeeping error, which
// must stay at float-summation scale (≤ 1e-9 s).
func (s *Stats) MaxDriftS() float64 { return s.maxDrift }

// jobState tracks one in-flight job.
type jobState struct {
	job        *Job
	id         uint64
	base       model.TaskID
	start      sim.Time
	placements []model.Placement // nil: the scheduler's policy decides

	remaining []int // unfinished predecessors per node
	done      []bool
	skipped   []bool
	outcomes  []model.Outcome

	pending int // nodes not yet settled or skipped
	failed  bool

	costUSD float64
	energy  float64
}

// Orchestrator drives Jobs through a sched.Scheduler, releasing each
// node only when its predecessors have completed. It adds no events and
// draws no randomness of its own: all timing and stochasticity stay in
// the substrates underneath, so runs remain deterministic.
type Orchestrator struct {
	s      *sched.Scheduler
	placer Placer
	jobSeq uint64
	active map[uint64]*jobState
	stats  Stats
	onDone func(Result)
	tr     *trace.SpanRecorder
}

// NewOrchestrator returns an orchestrator submitting through s. A nil
// placer defaults to Oblivious.
func NewOrchestrator(s *sched.Scheduler, placer Placer) *Orchestrator {
	if placer == nil {
		placer = Oblivious{}
	}
	return &Orchestrator{s: s, placer: placer, active: make(map[uint64]*jobState)}
}

// Placer returns the configured placer.
func (o *Orchestrator) Placer() Placer { return o.placer }

// Stats returns the accumulated job statistics.
func (o *Orchestrator) Stats() *Stats { return &o.stats }

// InFlight returns how many jobs have been submitted but not settled.
func (o *Orchestrator) InFlight() int { return len(o.active) }

// OnJobDone registers fn to receive every settled job, after the stats
// update. Call before the first Submit.
func (o *Orchestrator) OnJobDone(fn func(Result)) { o.onDone = fn }

// SetTracer attaches the span recorder: node task spans are adopted
// under one root span per job. The recorder is passive — attaching one
// never changes simulated results.
func (o *Orchestrator) SetTracer(t *trace.SpanRecorder) { o.tr = t }

// Submit validates the job, plans placements if the placer does, and
// releases its entry nodes. Node completions cascade inside the
// simulation; the job settles when every node has completed, failed, or
// been skipped behind a failure.
func (o *Orchestrator) Submit(job *Job) error {
	if err := job.Validate(); err != nil {
		return err
	}
	if job.Len() >= 1<<jobIDShift {
		return fmt.Errorf("dag: %s: %d nodes exceeds the per-job limit %d",
			job.App(), job.Len(), 1<<jobIDShift-1)
	}
	placements := o.placer.Place(job, o.s.Env(), o.s.Predictor())
	if placements != nil && len(placements) != job.Len() {
		return fmt.Errorf("dag: %s: placer %s returned %d placements for %d nodes",
			job.App(), o.placer.Name(), len(placements), job.Len())
	}
	o.jobSeq++
	st := &jobState{
		job:        job,
		id:         o.jobSeq,
		base:       model.TaskID(o.jobSeq << jobIDShift),
		start:      o.s.Env().Eng.Now(),
		placements: placements,
		remaining:  make([]int, job.Len()),
		done:       make([]bool, job.Len()),
		skipped:    make([]bool, job.Len()),
		outcomes:   make([]model.Outcome, job.Len()),
		pending:    job.Len(),
	}
	for id := 0; id < job.Len(); id++ {
		st.remaining[id] = len(job.Preds(NodeID(id)))
	}
	o.active[st.id] = st
	for id := 0; id < job.Len(); id++ {
		if st.remaining[id] == 0 {
			o.release(st, NodeID(id))
		}
	}
	return nil
}

// release hands one ready node to the scheduler.
func (o *Orchestrator) release(st *jobState, nid NodeID) {
	node := st.job.Node(nid)
	in, out := st.job.TaskSizes(nid)
	task := &model.Task{
		ID:               st.base + 1 + model.TaskID(nid),
		App:              st.job.App() + "/" + node.Name,
		Component:        node.Name,
		InputBytes:       in,
		OutputBytes:      out,
		Cycles:           node.Cycles,
		MemoryBytes:      node.MemoryBytes,
		ParallelFraction: node.ParallelFraction,
		Deadline:         st.job.Deadline(),
	}
	if o.tr != nil {
		o.tr.AdoptTrace(task.ID, st.id)
	}
	then := func(out model.Outcome) { o.nodeDone(st, nid, out) }
	if st.placements != nil {
		task.Submitted = o.s.Env().Eng.Now()
		o.s.DispatchThen(task, st.placements[nid], then)
		return
	}
	o.s.SubmitThen(task, then)
}

// nodeDone settles one node: successors whose last dependency this was
// are released; a failure skips every (transitive) descendant.
func (o *Orchestrator) nodeDone(st *jobState, nid NodeID, out model.Outcome) {
	st.outcomes[nid] = out
	st.costUSD += out.CostUSD
	st.energy += out.EnergyMilliJ
	st.pending--
	if out.Failed {
		st.failed = true
		o.stats.NodesFailed++
		o.skipDescendants(st, nid)
	} else {
		st.done[nid] = true
		o.stats.NodesCompleted++
		for _, s := range st.job.Succs(nid) {
			if st.skipped[s] {
				continue
			}
			st.remaining[s]--
			if st.remaining[s] == 0 {
				o.release(st, s)
			}
		}
	}
	if st.pending == 0 {
		o.finalize(st)
	}
}

// skipDescendants marks everything downstream of a failed node as
// skipped: those nodes can never become ready, so they settle without
// dispatching.
func (o *Orchestrator) skipDescendants(st *jobState, from NodeID) {
	stack := []NodeID{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range st.job.Succs(n) {
			if st.skipped[s] || st.done[s] {
				continue
			}
			st.skipped[s] = true
			st.pending--
			o.stats.NodesSkipped++
			stack = append(stack, s)
		}
	}
}

// finalize computes the job's makespan, critical path and slack, updates
// the aggregate stats and reports the result.
func (o *Orchestrator) finalize(st *jobState) {
	delete(o.active, st.id)

	res := Result{
		Job: st.job, ID: st.id, Start: st.start,
		Failed:       st.failed,
		CostUSD:      st.costUSD,
		EnergyMilliJ: st.energy,
		NodeOutcomes: st.outcomes,
	}
	end := st.start
	for id := range st.outcomes {
		if !st.skipped[id] && st.outcomes[id].Finished > end {
			end = st.outcomes[id].Finished
		}
	}
	res.End = end
	res.MakespanS = float64(end.Sub(st.start))

	o.stats.Jobs++
	o.stats.CostUSD += st.costUSD
	o.stats.EnergyMilliJ += st.energy
	if st.failed {
		o.stats.Failed++
	} else {
		o.criticalPath(st, &res)
		res.MeanSlackS = o.meanSlack(st, res.MakespanS)
		o.stats.makespans = append(o.stats.makespans, res.MakespanS)
		o.stats.critSum += res.CritTotalS
		o.stats.slackSum += res.MeanSlackS
		if drift := math.Abs(res.CritTotalS - res.MakespanS); drift > o.stats.maxDrift {
			o.stats.maxDrift = drift
		}
	}

	if o.tr != nil {
		status := trace.StatusOK
		switch {
		case res.Failed:
			status = trace.StatusFailed
		case res.MissedDeadline():
			status = trace.StatusMissed
		}
		o.tr.JobDone(st.id, st.job.App(), st.start, end, status, st.costUSD)
	}
	if o.onDone != nil {
		o.onDone(res)
	}
}

// criticalPath walks backward from the last-finishing node, at each step
// moving to the latest-finishing predecessor (ties: lowest NodeID). Each
// node's contribution is its finish minus its critical predecessor's
// finish (or the job start), so the contributions telescope to the
// makespan exactly.
func (o *Orchestrator) criticalPath(st *jobState, res *Result) {
	last, lastFin := NodeID(-1), sim.Time(0)
	for id := range st.outcomes {
		fin := st.outcomes[id].Finished
		if last == -1 || fin > lastFin {
			last, lastFin = NodeID(id), fin
		}
	}
	var path []NodeID
	var secs []float64
	for n := last; ; {
		prevFin := st.start
		next := NodeID(-1)
		for _, p := range st.job.Preds(n) {
			if fin := st.outcomes[p].Finished; next == -1 || fin > st.outcomes[next].Finished {
				next = p
				prevFin = fin
			}
		}
		path = append(path, n)
		secs = append(secs, float64(st.outcomes[n].Finished.Sub(prevFin)))
		if next == -1 {
			break
		}
		n = next
	}
	// Reverse into execution order.
	for i, k := 0, len(path)-1; i < k; i, k = i+1, k-1 {
		path[i], path[k] = path[k], path[i]
		secs[i], secs[k] = secs[k], secs[i]
	}
	total := 0.0
	for _, s := range secs {
		total += s
	}
	res.CritPath, res.CritS, res.CritTotalS = path, secs, total
}

// meanSlack runs a critical-path-method forward/backward pass over the
// observed node durations and returns the mean earliest-start slack.
func (o *Orchestrator) meanSlack(st *jobState, makespan float64) float64 {
	n := st.job.Len()
	dur := make([]float64, n)
	for id := 0; id < n; id++ {
		out := st.outcomes[id]
		dur[id] = float64(out.Finished.Sub(out.Started))
	}
	topo := st.job.TopoOrder()
	ef := make([]float64, n) // earliest finish, relative to job start
	for _, id := range topo {
		es := 0.0
		for _, p := range st.job.Preds(id) {
			if ef[p] > es {
				es = ef[p]
			}
		}
		ef[id] = es + dur[id]
	}
	ls := make([]float64, n) // latest start
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		lf := makespan
		for _, s := range st.job.Succs(id) {
			if v := ls[s]; v < lf {
				lf = v
			}
		}
		ls[id] = lf - dur[id]
	}
	sum := 0.0
	for id := 0; id < n; id++ {
		if slack := ls[id] - (ef[id] - dur[id]); slack > 0 {
			sum += slack
		}
	}
	return sum / float64(n)
}
