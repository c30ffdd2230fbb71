package main

import (
	"testing"

	"offload/internal/model"
)

// The traced assembly must be the system core.NewSystem builds, and the
// timing wrappers (including the extra EstimateFor calls) must change no
// simulated result.
func TestTracedDecideMatchesNewSystem(t *testing.T) {
	const n = 2000
	plain, err := runDecidePass(5, n, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := runDecidePass(5, n, tr, false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.fingerprint != traced.fingerprint {
		t.Fatalf("plain  %s\ntraced %s", plain.fingerprint, traced.fingerprint)
	}
	if plain.bad != 0 {
		t.Fatalf("unsettled tasks: %v", plain.problems)
	}
	if got := tr.calls(spanDecide); got != n {
		t.Fatalf("%d Decide spans for %d tasks", got, n)
	}
	if tr.calls(spanEstimate) != n || tr.calls(spanPredict) == 0 {
		t.Fatalf("EstimateFor %d, PredictCycles %d spans", tr.calls(spanEstimate), tr.calls(spanPredict))
	}
	if tr.meanNs(spanDecide, true) > tr.meanNs(spanDecide, false) {
		t.Fatal("Decide self time exceeds its total")
	}
}

func TestSettleLogFlagsMissingDuplicateAndFailedTasks(t *testing.T) {
	log := newSettleLog(2, 3)
	// Stream 1's task IDs start after 100.
	outcomes := []struct {
		stream int
		base   uint64
		id     uint64
		failed bool
	}{
		{0, 0, 1, false}, {0, 0, 2, false}, {0, 0, 2, false}, // 3 missing, 2 twice
		{1, 100, 101, false}, {1, 100, 102, true}, {1, 100, 103, false},
		{1, 100, 104, false}, // out of range
	}
	for _, o := range outcomes {
		log.hook(o.stream, model.TaskID(o.base))(model.Outcome{Task: &model.Task{ID: model.TaskID(o.id)}, Failed: o.failed})
	}
	bad, problems := log.verify()
	if bad != 4 || len(problems) != 4 {
		t.Fatalf("bad %d, problems %v", bad, problems)
	}
}
