// Package trace records task lifecycles as structured records and
// round-trips them through JSON Lines, so runs can be archived, diffed
// across framework versions (the CI/CD regression check), and replayed.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"offload/internal/model"
	"offload/internal/sim"
)

// Record is one completed (or failed) task, flattened for serialisation.
type Record struct {
	TaskID    uint64  `json:"task_id"`
	App       string  `json:"app,omitempty"`
	Placement string  `json:"placement"`
	Submitted float64 `json:"submitted_s"`
	Finished  float64 `json:"finished_s"`

	// Task shape, kept so a trace can be replayed as a workload.
	Cycles      float64 `json:"cycles,omitempty"`
	InputBytes  int64   `json:"input_bytes,omitempty"`
	OutputBytes int64   `json:"output_bytes,omitempty"`
	MemoryBytes int64   `json:"memory_bytes,omitempty"`
	DeadlineS   float64 `json:"deadline_s,omitempty"`
	ParallelFr  float64 `json:"parallel_fraction,omitempty"`

	UplinkS    float64 `json:"uplink_s,omitempty"`
	DownlinkS  float64 `json:"downlink_s,omitempty"`
	ExecS      float64 `json:"exec_s,omitempty"`
	QueueS     float64 `json:"queue_s,omitempty"`
	ColdStartS float64 `json:"cold_start_s,omitempty"`

	CostUSD      float64 `json:"cost_usd,omitempty"`
	EnergyMilliJ float64 `json:"energy_mj,omitempty"`

	// Attempts is how many dispatches the task took (retries and hedges
	// included); 0 in traces written before the field existed.
	Attempts int `json:"attempts,omitempty"`

	Missed bool `json:"missed,omitempty"`
	Failed bool `json:"failed,omitempty"`
}

// FromOutcome flattens a scheduler outcome.
func FromOutcome(o model.Outcome) Record {
	r := Record{
		Placement:    o.Placement.String(),
		Submitted:    float64(o.Started),
		Finished:     float64(o.Finished),
		UplinkS:      float64(o.UplinkTime),
		DownlinkS:    float64(o.DownlinkTime),
		ExecS:        float64(o.Exec.Duration()),
		QueueS:       float64(o.Exec.QueueWait),
		ColdStartS:   float64(o.Exec.ColdStart),
		CostUSD:      o.CostUSD,
		EnergyMilliJ: o.EnergyMilliJ,
		Attempts:     o.Attempts,
		Missed:       o.MissedDeadline(),
		Failed:       o.Failed,
	}
	if o.Task != nil {
		r.TaskID = uint64(o.Task.ID)
		r.App = o.Task.App
		r.Cycles = o.Task.Cycles
		r.InputBytes = o.Task.InputBytes
		r.OutputBytes = o.Task.OutputBytes
		r.MemoryBytes = o.Task.MemoryBytes
		r.DeadlineS = float64(o.Task.Deadline)
		r.ParallelFr = o.Task.ParallelFraction
	}
	return r
}

// Task reconstructs the recorded task (without its outcome).
func (r Record) Task() *model.Task {
	return &model.Task{
		ID:               model.TaskID(r.TaskID),
		App:              r.App,
		InputBytes:       r.InputBytes,
		OutputBytes:      r.OutputBytes,
		Cycles:           r.Cycles,
		MemoryBytes:      r.MemoryBytes,
		ParallelFraction: r.ParallelFr,
		Deadline:         sim.Duration(r.DeadlineS),
		Submitted:        sim.Time(r.Submitted),
	}
}

// Replay schedules every record's task at its recorded submission time,
// invoking submit for each — trace-driven workload replay. Records whose
// submission time is in the engine's past are rejected.
func Replay(eng *sim.Engine, records []Record, submit func(*model.Task)) error {
	if submit == nil {
		return fmt.Errorf("trace: Replay with nil submit")
	}
	for i, r := range records {
		at := sim.Time(r.Submitted)
		if at < eng.Now() {
			return fmt.Errorf("trace: record %d submitted at %v, before engine time %v", i, at, eng.Now())
		}
		task := r.Task()
		eng.At(at, func() { submit(task) })
	}
	return nil
}

// CompletionS returns the end-to-end completion time in seconds.
func (r Record) CompletionS() float64 { return r.Finished - r.Submitted }

// Recorder accumulates records; plug Hook into a scheduler. It retains
// one record per settled task for the life of the run, so systems attach
// one only on request (core.System.EnableRecords).
type Recorder struct {
	records []Record
}

// Hook returns an outcome callback that appends to the recorder.
func (rec *Recorder) Hook() func(model.Outcome) {
	return func(o model.Outcome) {
		rec.records = append(rec.records, FromOutcome(o))
	}
}

// Add appends a record directly.
func (rec *Recorder) Add(r Record) { rec.records = append(rec.records, r) }

// Len returns the number of records.
func (rec *Recorder) Len() int { return len(rec.records) }

// Records returns a copy of the accumulated records.
func (rec *Recorder) Records() []Record {
	cp := make([]Record, len(rec.records))
	copy(cp, rec.records)
	return cp
}

// WriteJSONL streams the records as one JSON object per line.
func (rec *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range rec.records {
		if err := enc.Encode(&rec.records[i]); err != nil {
			return fmt.Errorf("trace: encoding record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses records from a JSON Lines stream. Blank lines are
// skipped; malformed lines abort with a line-numbered error.
func ReadJSONL(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	return out, nil
}
