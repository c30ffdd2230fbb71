package adapt

import (
	"math"
	"testing"

	"offload/internal/cloudvm"
	"offload/internal/edge"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sched"
	"offload/internal/serverless"
	"offload/internal/sim"
	"offload/internal/trace"
)

// --- Page–Hinkley -----------------------------------------------------

func TestDriftSteadyStreamNeverFires(t *testing.T) {
	d := NewPageHinkley(DriftConfig{})
	for i := 0; i < 1000; i++ {
		if d.Observe(2.0) {
			t.Fatalf("fired on a constant stream at observation %d", i)
		}
	}
	if d.N() != 1000 {
		t.Fatalf("N() = %d, want 1000", d.N())
	}
}

func TestDriftFiresOnShift(t *testing.T) {
	d := NewPageHinkley(DriftConfig{Lambda: 30})
	for i := 0; i < 50; i++ {
		if d.Observe(2.0) {
			t.Fatal("fired before the shift")
		}
	}
	fired := false
	for i := 0; i < 50; i++ {
		if d.Observe(20.0) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("never fired on a 10x mean shift")
	}
}

func TestDriftIgnoresNonFinite(t *testing.T) {
	d := NewPageHinkley(DriftConfig{})
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if d.Observe(v) {
			t.Fatalf("fired on %v", v)
		}
	}
	if d.N() != 0 {
		t.Fatalf("non-finite values were counted: N() = %d", d.N())
	}
}

// TestDriftResetIsFresh: after Reset, the detector must behave exactly
// like a newly constructed one on any subsequent stream.
func TestDriftResetIsFresh(t *testing.T) {
	cfg := DriftConfig{Lambda: 10, MinSamples: 3}
	used := NewPageHinkley(cfg)
	for i := 0; i < 20; i++ {
		used.Observe(float64(i) * 3)
	}
	used.Reset()
	if used.N() != 0 {
		t.Fatalf("N() = %d after Reset, want 0", used.N())
	}
	fresh := NewPageHinkley(cfg)
	stream := []float64{1, 1, 2, 50, 1, 80, 80, 80}
	for i, v := range stream {
		if got, want := used.Observe(v), fresh.Observe(v); got != want {
			t.Fatalf("observation %d: reset detector fired=%v, fresh fired=%v", i, got, want)
		}
	}
}

// --- bandit -----------------------------------------------------------

var allArms = []model.Placement{model.PlaceLocal, model.PlaceEdge, model.PlaceFunction, model.PlaceVM}

func TestBanditUntriedArmsFirstInAvailOrder(t *testing.T) {
	b := newBandit(BanditUCB, 0, 1, rng.New(1))
	for i, want := range allArms {
		got := b.decide("k", allArms)
		if got != want {
			t.Fatalf("pull %d: got %v, want %v (availability order)", i, got, want)
		}
		b.observe("k", got, 0.5)
	}
}

func TestBanditConvergesToBestArm(t *testing.T) {
	for _, kind := range []BanditKind{BanditUCB, BanditGreedy} {
		b := newBandit(kind, 0.05, 0.2, rng.New(7))
		reward := map[model.Placement]float64{
			model.PlaceLocal:    0.2,
			model.PlaceEdge:     0.9,
			model.PlaceFunction: 0.3,
			model.PlaceVM:       0.4,
		}
		edgePulls := 0
		for i := 0; i < 200; i++ {
			p := b.decide("k", allArms)
			if i >= 100 && p == model.PlaceEdge {
				edgePulls++
			}
			b.observe("k", p, reward[p])
		}
		if edgePulls < 80 {
			t.Errorf("kind %v: best arm pulled %d/100 late rounds, want >= 80", kind, edgePulls)
		}
	}
}

func TestBanditDeterminism(t *testing.T) {
	run := func() []model.Placement {
		b := newBandit(BanditGreedy, 0.2, 1, rng.New(99))
		var out []model.Placement
		for i := 0; i < 100; i++ {
			p := b.decide("k", allArms)
			out = append(out, p)
			b.observe("k", p, float64(i%3)/3)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBanditResetArm(t *testing.T) {
	b := newBandit(BanditUCB, 0, 1, rng.New(1))
	for i := 0; i < 12; i++ {
		p := b.decide("k", allArms)
		b.observe("k", p, 0.5)
	}
	if cleared := b.resetArm(model.PlaceEdge); cleared != 1 {
		t.Fatalf("resetArm cleared %d cells, want 1", cleared)
	}
	// The cleared arm counts as untried again: with local tried, the next
	// non-exploring decision must re-pull edge (first untried in order).
	if p := b.decide("k", allArms); p != model.PlaceEdge {
		t.Fatalf("after reset, decide = %v, want PlaceEdge (untried-first)", p)
	}
	if cleared := b.resetArm(model.PlaceEdge); cleared != 0 {
		t.Fatalf("resetArm on empty arm cleared %d, want 0", cleared)
	}
}

func TestBanditSnapshotAggregatesContexts(t *testing.T) {
	b := newBandit(BanditUCB, 0, 1, rng.New(1))
	b.observe("a#0", model.PlaceEdge, 1.0)
	b.observe("b#1", model.PlaceEdge, 0.0)
	b.observe("a#0", model.PlaceLocal, 0.4)
	snap := b.snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d arms, want 2", len(snap))
	}
	if snap[0].Placement != model.PlaceLocal || snap[1].Placement != model.PlaceEdge {
		t.Fatalf("snapshot order %v, want canonical [local edge]", snap)
	}
	if snap[1].Pulls != 2 || math.Abs(snap[1].MeanReward-0.5) > 1e-12 {
		t.Fatalf("edge arm = %+v, want 2 pulls mean 0.5", snap[1])
	}
}

func TestSizeDecile(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int
	}{
		{0, 0}, {1024, 0}, {64 << 10, 3}, {1 << 20, 5}, {1 << 30, 9}, {1 << 40, 9},
	}
	for _, c := range cases {
		if got := sizeDecile(c.bytes); got != c.want {
			t.Errorf("sizeDecile(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
	task := &model.Task{App: "report-gen", InputBytes: 64 << 10}
	if got := contextKey(task); got != "report-gen#3" {
		t.Errorf("contextKey = %q, want report-gen#3", got)
	}
}

// --- admission --------------------------------------------------------

func TestAdmissionInFlightCap(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInFlight: 2})
	env := &sched.Env{}
	a.noteDispatch(1, model.PlaceEdge)
	a.noteDispatch(2, model.PlaceVM)
	if shed, reason := a.shouldShed(env, 0); !shed || reason != "in-flight" {
		t.Fatalf("at cap: shed=%v reason=%q, want in-flight shed", shed, reason)
	}
	a.noteOutcome(model.Outcome{Task: &model.Task{ID: 1}, Placement: model.PlaceEdge}, 0)
	if shed, _ := a.shouldShed(env, 0); shed {
		t.Fatal("still shedding after an outcome settled")
	}
	// Local dispatches never enter the ledger.
	a.noteDispatch(3, model.PlaceLocal)
	if a.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1 (local not counted)", a.InFlight())
	}
}

func TestAdmissionLedgerNoLeak(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxInFlight: 8})
	// Decided remote, but the outcome settles under a different placement
	// (fallback rerouted it): the ledger is keyed by task ID, so it still
	// drains.
	a.noteDispatch(7, model.PlaceFunction)
	a.noteOutcome(model.Outcome{Task: &model.Task{ID: 7}, Placement: model.PlaceLocal}, 0)
	if a.InFlight() != 0 {
		t.Fatalf("in-flight = %d after reroute settled, want 0", a.InFlight())
	}
}

func TestAdmissionBreaker(t *testing.T) {
	a := newAdmission(AdmissionConfig{FailureStreak: 2, Cooldown: 30})
	env := &sched.Env{}
	fail := func(id model.TaskID, at sim.Time) bool {
		a.noteDispatch(id, model.PlaceFunction)
		return a.noteOutcome(model.Outcome{
			Task: &model.Task{ID: id}, Placement: model.PlaceFunction, Failed: true,
		}, at)
	}
	if fail(1, 10) {
		t.Fatal("breaker tripped after one failure, streak is 2")
	}
	if !fail(2, 11) {
		t.Fatal("breaker did not trip at the streak")
	}
	if a.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", a.Trips())
	}
	if shed, reason := a.shouldShed(env, 12); !shed || reason != "breaker" {
		t.Fatalf("inside cooldown: shed=%v reason=%q", shed, reason)
	}
	if shed, _ := a.shouldShed(env, 41); shed {
		t.Fatal("still shedding after the cooldown expired")
	}
	// A success between failures resets the streak.
	fail(3, 50)
	a.noteDispatch(4, model.PlaceEdge)
	a.noteOutcome(model.Outcome{Task: &model.Task{ID: 4}, Placement: model.PlaceEdge}, 51)
	if fail(5, 52) {
		t.Fatal("tripped although a success reset the streak")
	}
}

// --- tuner ------------------------------------------------------------

func TestTunerResizesOnObservedShift(t *testing.T) {
	eng := sim.NewEngine()
	src := rng.New(1)
	platform := serverless.NewPlatform(eng, src.Split(), serverless.LambdaLike())
	pool := sched.NewFunctionPool(platform)
	env := &sched.Env{Eng: eng, Functions: pool}

	small := &model.Task{
		ID: 1, App: "app", InputBytes: 64 << 10, Cycles: 2e9,
		MemoryBytes: 256 << 20, ParallelFraction: 0.5, Deadline: 60,
	}
	pred := sched.NewPerApp(0.3)
	pred.Observe(small, 2e9)
	if _, err := pool.For(small, pred); err != nil {
		t.Fatal(err)
	}
	sizedBefore := pool.Sized("app")
	if sizedBefore == 0 {
		t.Fatal("function not deployed")
	}

	tn := newTuner(Config{TuneAlpha: 0.5, TuneHysteresis: 0.25, TuneMinObservations: 2, TuneEvery: 1}.withDefaults())
	// The app turns out 20x heavier than the deployment assumed: the
	// re-run allocator must move memory past the hysteresis band.
	resized := int64(0)
	for i := 0; i < 10; i++ {
		big := *small
		big.ID = model.TaskID(10 + i)
		big.Cycles = 4e10
		if mem := tn.observe(model.Outcome{
			Task: &big, Placement: model.PlaceFunction,
			Started: 0, Finished: sim.Time(5),
		}, env); mem != 0 {
			resized = mem
			break
		}
	}
	if resized == 0 {
		t.Fatal("tuner never resized despite a 20x demand shift")
	}
	if resized == sizedBefore {
		t.Fatalf("resize kept the old size %d", resized)
	}
	if pool.Sized("app") != resized {
		t.Fatalf("pool sized %d, tuner reported %d", pool.Sized("app"), resized)
	}
	if tn.Resizes() != 1 {
		t.Fatalf("resizes = %d, want 1", tn.Resizes())
	}
}

func TestTunerIgnoresNonServerlessAndFailures(t *testing.T) {
	tn := newTuner(Config{TuneMinObservations: 1, TuneEvery: 1}.withDefaults())
	env := &sched.Env{}
	task := &model.Task{ID: 1, App: "a", Cycles: 1e9}
	for _, o := range []model.Outcome{
		{Task: task, Placement: model.PlaceEdge},
		{Task: task, Placement: model.PlaceFunction, Failed: true},
		{Task: nil, Placement: model.PlaceFunction},
	} {
		if mem := tn.observe(o, env); mem != 0 {
			t.Fatalf("tuner acted on %+v", o)
		}
	}
	if len(tn.byApp) != 0 {
		t.Fatal("unusable outcomes accumulated state")
	}
}

// --- controller -------------------------------------------------------

// adaptEvents lists the recorder's adaptive-layer event spans as
// "kind:subject", in recording order.
func adaptEvents(rec *trace.SpanRecorder) []string {
	var events []string
	for _, sp := range rec.Set().Spans {
		if sp.Name == trace.EventAdapt {
			events = append(events, sp.Status+":"+sp.Backend)
		}
	}
	return events
}

func testEnv(t *testing.T) *sched.Env {
	t.Helper()
	eng := sim.NewEngine()
	return &sched.Env{
		Eng:  eng,
		Edge: edge.New(eng, edge.SmallSite()),
		VM:   cloudvm.New(eng, cloudvm.C5Large()),
	}
}

func TestNewBanditRequiresSource(t *testing.T) {
	if _, err := NewBandit(BanditUCB, DefaultConfig(), nil); err == nil {
		t.Fatal("nil rng source accepted")
	}
}

func TestControllerBanditNames(t *testing.T) {
	for kind, want := range map[BanditKind]string{BanditUCB: "bandit-ucb", BanditGreedy: "bandit-greedy"} {
		c, err := NewBandit(kind, Config{}, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != want {
			t.Errorf("Name() = %q, want %q", c.Name(), want)
		}
	}
}

func TestWrapDelegatesAndRenames(t *testing.T) {
	c, err := Wrap(sched.LocalOnly{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "local-only+adapt" {
		t.Fatalf("Name() = %q", c.Name())
	}
	env := testEnv(t)
	task := &model.Task{ID: 1, App: "a"}
	if p := c.Decide(task, env, nil); p != model.PlaceLocal {
		t.Fatalf("wrapped local-only decided %v", p)
	}
	c.ObserveOutcome(model.Outcome{Task: task, Placement: model.PlaceLocal, Finished: 2}, env)
	if c.Arms() != nil {
		t.Fatal("wrapping controller reports bandit arms")
	}
	if _, err := Wrap(nil, Config{}); err == nil {
		t.Fatal("nil inner policy accepted")
	}
}

func TestControllerDriftResetClearsArmAndTraces(t *testing.T) {
	cfg := Config{Drift: &DriftConfig{Lambda: 5, MinSamples: 2, FailurePenaltyS: 100}}
	c, err := NewBandit(BanditUCB, cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewSpanRecorder()
	c.SetTracer(tr)
	env := testEnv(t)

	outcome := func(id model.TaskID, completion sim.Time, failed bool) model.Outcome {
		return model.Outcome{
			Task:      &model.Task{ID: id, App: "a", InputBytes: 1 << 10},
			Placement: model.PlaceEdge,
			Finished:  completion,
			Failed:    failed,
		}
	}
	c.ObserveOutcome(outcome(1, 2, false), env)
	c.ObserveOutcome(outcome(2, 2, false), env)
	if c.DriftResets() != 0 {
		t.Fatal("drift fired on a steady stream")
	}
	c.ObserveOutcome(outcome(3, 0, true), env)
	if c.DriftResets() != 1 {
		t.Fatalf("drift resets = %d after failure spike, want 1", c.DriftResets())
	}
	if c.ArmsCleared() != 1 {
		t.Fatalf("arms cleared = %d, want 1", c.ArmsCleared())
	}
	want := EventDriftReset + ":edge"
	if events := adaptEvents(tr); len(events) != 1 || events[0] != want {
		t.Fatalf("tracer events %q, want [%q]", events, want)
	}
	// The reset wiped the arm's history; the failure that confirmed the
	// drift is evidence from the new regime, so it alone restocks the arm
	// (one pull, zero reward).
	for _, a := range c.Arms() {
		if a.Placement == model.PlaceEdge && (a.Pulls != 1 || a.MeanReward != 0) {
			t.Fatalf("edge arm after reset = %+v, want 1 pull at zero reward", a)
		}
	}
}

func TestControllerAdmissionShedsAndCounts(t *testing.T) {
	cfg := Config{Admission: &AdmissionConfig{MaxInFlight: 1}}
	c, err := NewBandit(BanditUCB, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t)
	// Untried-first walks OBSERVED arms in availability order: local is
	// settled, edge is dispatched but never settles, so it holds the
	// in-flight cap and the third decision (which would explore VM) is
	// localized instead.
	t1 := &model.Task{ID: 1, App: "a"}
	p1 := c.Decide(t1, env, nil)
	c.ObserveOutcome(model.Outcome{Task: t1, Placement: p1, Finished: 2}, env)
	p2 := c.Decide(&model.Task{ID: 2, App: "a"}, env, nil)
	p3 := c.Decide(&model.Task{ID: 3, App: "a"}, env, nil)
	if p1 != model.PlaceLocal || p2 != model.PlaceEdge {
		t.Fatalf("first decisions %v, %v; want local, edge", p1, p2)
	}
	if p3 != model.PlaceLocal {
		t.Fatalf("over-cap decision %v, want localized", p3)
	}
	if c.Sheds() != 1 {
		t.Fatalf("sheds = %d, want 1", c.Sheds())
	}
	if c.Switches() != 2 {
		t.Fatalf("switches = %d, want 2 (local->edge->local)", c.Switches())
	}
}

func TestControllerRewardShape(t *testing.T) {
	c, err := NewBandit(BanditUCB, Config{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if r := c.reward(model.Outcome{Failed: true}); r != 0 {
		t.Fatalf("failed outcome rewarded %v", r)
	}
	fast := c.reward(model.Outcome{Finished: 1})
	slow := c.reward(model.Outcome{Finished: 100})
	costly := c.reward(model.Outcome{Finished: 1, CostUSD: 0.01})
	if !(fast > slow && fast > costly) {
		t.Fatalf("reward ordering broken: fast=%v slow=%v costly=%v", fast, slow, costly)
	}
	if fast <= 0 || fast > 1 {
		t.Fatalf("reward %v outside (0, 1]", fast)
	}
}

func TestControllerFillRegistry(t *testing.T) {
	c, err := NewBandit(BanditUCB, DefaultConfig(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t)
	for i := 0; i < 6; i++ {
		task := &model.Task{ID: model.TaskID(i), App: "a", InputBytes: 1 << 10}
		p := c.Decide(task, env, nil)
		c.ObserveOutcome(model.Outcome{Task: task, Placement: p, Finished: sim.Time(i + 1)}, env)
	}
	reg := metrics.NewRegistry("t")
	c.FillRegistry(reg)
	var pulls float64
	for _, p := range []model.Placement{model.PlaceLocal, model.PlaceEdge, model.PlaceVM} {
		pulls += reg.Counter("adapt_arm_pulls", metrics.L("arm", p.String())).Value()
	}
	if pulls != 6 {
		t.Fatalf("exported arm pulls = %v, want 6", pulls)
	}
	if got := reg.Counter("adapt_switches").Value(); got != float64(c.Switches()) {
		t.Fatalf("exported switches %v != %d", got, c.Switches())
	}
}

// --- fuzz -------------------------------------------------------------

// FuzzDriftDetector checks two invariants on arbitrary streams and
// configurations: Observe never panics (non-finite input included), and
// Reset returns the detector to a state indistinguishable from a fresh
// one on any subsequent stream.
func FuzzDriftDetector(f *testing.F) {
	f.Add(30.0, 0.05, 8, 1.0, 2.0, 3.0, 100.0, 100.0, 100.0)
	f.Add(0.0, 0.0, 0, math.NaN(), math.Inf(1), math.Inf(-1), 0.0, -5.0, 1e300)
	f.Add(-1.0, -1.0, -1, 1e-300, -1e300, 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, lambda, delta float64, minSamples int,
		a, b, c, x, y, z float64) {
		cfg := DriftConfig{Lambda: lambda, Delta: delta, MinSamples: minSamples}
		d := NewPageHinkley(cfg)
		before := 0
		for _, v := range []float64{a, b, c} {
			d.Observe(v)
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				before++
			}
		}
		if d.N() != before {
			t.Fatalf("N() = %d after %d finite observations", d.N(), before)
		}
		d.Reset()
		if d.N() != 0 {
			t.Fatalf("N() = %d after Reset", d.N())
		}
		fresh := NewPageHinkley(cfg)
		for i, v := range []float64{x, y, z} {
			if got, want := d.Observe(v), fresh.Observe(v); got != want {
				t.Fatalf("observation %d: reset=%v fresh=%v", i, got, want)
			}
		}
	})
}
