package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"offload/internal/model"
	"offload/internal/sched"
)

// spanLimit bounds how many spans one tracer keeps for export; the
// per-layer aggregates count every span regardless.
const spanLimit = 200_000

// span is one timed call across a layer boundary, recorded by the
// benchmark around a public function of that layer.
type span struct {
	ID, Parent int32
	Name       string
	Start, End int64 // ns since the tracer's origin
}

// layerAgg accumulates every span of one name.
type layerAgg struct {
	calls   int64
	totalNs int64
	selfNs  int64 // total minus the time covered by child spans
}

type frame struct {
	id      int32
	name    string
	start   int64
	childNs int64
}

// tracer records nested spans from one goroutine. Spans are kept in
// memory (up to spanLimit) and written out when the run ends; aggregates
// per span name give each layer's call count, total and self time.
type tracer struct {
	origin time.Time
	nextID int32
	stack  []frame
	spans  []span
	agg    map[string]*layerAgg
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), agg: make(map[string]*layerAgg)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	t.nextID++
	t.stack = append(t.stack, frame{id: t.nextID, name: name, start: t.now()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	end := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	var parent int32
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1].id
	}
	t.add(span{ID: f.id, Parent: parent, Name: f.name, Start: f.start, End: end}, f.childNs)
}

// record adds a span measured elsewhere, as a child of the innermost open
// span.
func (t *tracer) record(name string, start, end time.Time) {
	t.nextID++
	var parent int32
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1].id
	}
	t.add(span{ID: t.nextID, Parent: parent, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}, 0)
}

func (t *tracer) add(s span, childNs int64) {
	d := s.End - s.Start
	a := t.agg[s.Name]
	if a == nil {
		a = &layerAgg{}
		t.agg[s.Name] = a
	}
	a.calls++
	a.totalNs += d
	a.selfNs += d - childNs
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].childNs += d
	}
	if len(t.spans) < spanLimit {
		t.spans = append(t.spans, s)
	}
}

// meanNs returns the mean duration of the named spans (self time when
// self is set), or 0 when none were recorded.
func (t *tracer) meanNs(name string, self bool) float64 {
	a := t.agg[name]
	if a == nil || a.calls == 0 {
		return 0
	}
	if self {
		return float64(a.selfNs) / float64(a.calls)
	}
	return float64(a.totalNs) / float64(a.calls)
}

func (t *tracer) calls(name string) int64 {
	if a := t.agg[name]; a != nil {
		return a.calls
	}
	return 0
}

func (t *tracer) totalNs(name string) int64 {
	if a := t.agg[name]; a != nil {
		return a.totalNs
	}
	return 0
}

// merge folds another tracer's aggregates and spans into t. The other
// tracer's span IDs are offset past t's so they stay unique.
func (t *tracer) merge(o *tracer) {
	shift := t.nextID
	delta := int64(o.origin.Sub(t.origin))
	for _, s := range o.spans {
		if len(t.spans) >= spanLimit {
			break
		}
		s.ID += shift
		if s.Parent != 0 {
			s.Parent += shift
		}
		s.Start += delta
		s.End += delta
		t.spans = append(t.spans, s)
	}
	t.nextID += o.nextID
	for name, a := range o.agg {
		b := t.agg[name]
		if b == nil {
			b = &layerAgg{}
			t.agg[name] = b
		}
		b.calls += a.calls
		b.totalNs += a.totalNs
		b.selfNs += a.selfNs
	}
}

func (t *tracer) len() int { return len(t.spans) }

// writeFile exports the kept spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// Span names: one per layer boundary the benchmark times.
const (
	spanSubmit   = "sched.Submit"
	spanDecide   = "sched.Decide"
	spanPredict  = "sched.PredictCycles"
	spanEstimate = "alloc.EstimateFor"
)

// timedPolicy times every Decide of the wrapped deadline-aware policy. It
// also times FunctionPool.EstimateFor — the allocator sweep inside that
// Decide — on the same task and predicted cycles, after Decide returns.
// EstimateFor is pure, so the extra call changes no simulated result; the
// tracing-inertness check proves it each run.
type timedPolicy struct {
	inner   sched.Policy
	rawPred sched.Predictor // the unwrapped predictor, for the extra call
	tr      *tracer
	samples []chooseSample // the first calls, replayed to count bytes
}

// chooseSample is one EstimateFor input seen during the run.
type chooseSample struct {
	task   *model.Task
	cycles float64
}

const chooseSamples = 1000

var _ sched.Policy = (*timedPolicy)(nil)

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Decide(task *model.Task, env *sched.Env, pred sched.Predictor) model.Placement {
	p.tr.begin(spanDecide)
	pl := p.inner.Decide(task, env, pred)
	p.tr.end()
	if env.Functions != nil {
		cycles := p.rawPred.PredictCycles(task)
		p.tr.begin(spanEstimate)
		_, _ = env.Functions.EstimateFor(task, cycles) // timed for its cost; Decide already used the result
		p.tr.end()
		if len(p.samples) < chooseSamples {
			p.samples = append(p.samples, chooseSample{task, cycles})
		}
	}
	return pl
}

// timedPredictor times every PredictCycles of the wrapped predictor.
type timedPredictor struct {
	inner sched.Predictor
	tr    *tracer
}

var _ sched.Predictor = (*timedPredictor)(nil)

func (p *timedPredictor) PredictCycles(task *model.Task) float64 {
	p.tr.begin(spanPredict)
	v := p.inner.PredictCycles(task)
	p.tr.end()
	return v
}

func (p *timedPredictor) Observe(task *model.Task, actual float64) { p.inner.Observe(task, actual) }

// chooseBytes replays recorded EstimateFor inputs and returns the heap
// bytes one call allocates on average.
func chooseBytes(pool *sched.FunctionPool, samples []chooseSample) float64 {
	if pool == nil || len(samples) == 0 {
		return 0
	}
	before := settledRuntime()
	for _, s := range samples {
		_, _ = pool.EstimateFor(s.task, s.cycles) // only the allocation is measured
	}
	after := settledRuntime()
	return (after.allocBytes - before.allocBytes) / float64(len(samples))
}

// sampleDecide times Decide of a scheduler's own policy on its own
// environment and predictor, after the run: for systems the benchmark
// cannot assemble itself (the sharded fleet, the serve path), whose
// policy it therefore cannot wrap. Decide and PredictCycles of the
// static policies read state only.
func sampleDecide(tr *tracer, s *sched.Scheduler, tasks []*model.Task) {
	pol, env := s.Policy(), s.Env()
	pred := &timedPredictor{inner: s.Predictor(), tr: tr}
	for _, task := range tasks {
		tr.begin(spanDecide)
		pol.Decide(task, env, pred)
		tr.end()
	}
}
