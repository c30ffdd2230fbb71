package trace

import (
	"bytes"
	"strings"
	"testing"

	"offload/internal/model"
	"offload/internal/sim"
)

func sample() Record {
	return Record{
		TaskID: 7, App: "video-transcode", Placement: "function",
		Submitted: 10, Finished: 25.5,
		UplinkS: 1.2, DownlinkS: 0.3, ExecS: 14, ColdStartS: 0.4,
		CostUSD: 0.00012, EnergyMilliJ: 820,
	}
}

func TestFromOutcome(t *testing.T) {
	task := &model.Task{ID: 3, App: "x", Deadline: 5}
	o := model.Outcome{
		Task: task, Placement: model.PlaceFunction,
		Started: 1, Finished: 10, // misses the 5 s deadline
		UplinkTime: 0.5, DownlinkTime: 0.25,
		Exec:    model.ExecReport{Start: 2, End: 9, ColdStart: 0.3, QueueWait: 0.1, CostUSD: 1e-5},
		CostUSD: 1e-5, EnergyMilliJ: 44,
	}
	r := FromOutcome(o)
	if r.TaskID != 3 || r.App != "x" || r.Placement != "function" {
		t.Fatalf("identity fields wrong: %+v", r)
	}
	if r.CompletionS() != 9 {
		t.Fatalf("CompletionS = %g", r.CompletionS())
	}
	if !r.Missed {
		t.Fatal("miss not recorded")
	}
	if r.ExecS != 7 || r.ColdStartS != 0.3 {
		t.Fatalf("exec fields wrong: %+v", r)
	}
}

func TestRecorderHook(t *testing.T) {
	var rec Recorder
	hook := rec.Hook()
	hook(model.Outcome{Task: &model.Task{ID: 1}, Placement: model.PlaceLocal})
	hook(model.Outcome{Task: &model.Task{ID: 2}, Placement: model.PlaceEdge, Failed: true})
	if rec.Len() != 2 {
		t.Fatalf("Len = %d", rec.Len())
	}
	records := rec.Records()
	records[0].TaskID = 999
	if rec.Records()[0].TaskID == 999 {
		t.Fatal("Records returned aliased storage")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var rec Recorder
	rec.Add(sample())
	r2 := sample()
	r2.TaskID = 8
	r2.Failed = true
	rec.Add(r2)

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("read %d records", len(back))
	}
	if back[0] != sample() || back[1] != r2 {
		t.Fatalf("round trip changed records:\n%+v\n%+v", back[0], back[1])
	}
}

func TestReadJSONLSkipsBlanksAndReportsErrors(t *testing.T) {
	in := "\n" + `{"task_id":1,"placement":"local","submitted_s":0,"finished_s":1}` + "\n\n"
	recs, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	_, err = ReadJSONL(strings.NewReader("{bad json}\n"))
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("malformed line error = %v", err)
	}
}

func TestRecordTaskRoundTrip(t *testing.T) {
	task := &model.Task{
		ID: 9, App: "x", InputBytes: 100, OutputBytes: 50,
		Cycles: 3e9, MemoryBytes: 1 << 28, ParallelFraction: 0.6,
		Deadline: 120, Submitted: 42,
	}
	r := FromOutcome(model.Outcome{Task: task, Placement: model.PlaceFunction, Started: 42, Finished: 50})
	back := r.Task()
	if *back != *task {
		t.Fatalf("task round trip changed:\n%+v\n%+v", back, task)
	}
}

func TestReplaySchedulesAtRecordedTimes(t *testing.T) {
	eng := sim.NewEngine()
	records := []Record{
		{TaskID: 1, App: "a", Cycles: 1, Submitted: 5},
		{TaskID: 2, App: "a", Cycles: 1, Submitted: 2},
		{TaskID: 3, App: "b", Cycles: 1, Submitted: 9},
	}
	var got []sim.Time
	var ids []uint64
	if err := Replay(eng, records, func(task *model.Task) {
		got = append(got, eng.Now())
		ids = append(ids, uint64(task.ID))
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	want := []sim.Time{2, 5, 9}
	wantIDs := []uint64{2, 1, 3}
	for i := range want {
		if got[i] != want[i] || ids[i] != wantIDs[i] {
			t.Fatalf("replay order: times %v ids %v", got, ids)
		}
	}
}

func TestReplayRejectsPastRecords(t *testing.T) {
	eng := sim.NewEngine()
	eng.At(10, func() {})
	eng.Run() // now = 10
	err := Replay(eng, []Record{{Submitted: 5}}, func(*model.Task) {})
	if err == nil {
		t.Fatal("past record accepted")
	}
	if err := Replay(eng, nil, nil); err == nil {
		t.Fatal("nil submit accepted")
	}
}
