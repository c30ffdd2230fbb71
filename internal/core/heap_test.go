package core

import (
	"runtime"
	"testing"
	"time"

	"offload/internal/model"
	"offload/internal/sim"
)

// TestServerHeapIsFlat: a long-running server must not retain memory per
// settled task. It settles n tasks, then 3n, on the deterministic sim
// clock and asserts the live heap after a forced GC grew by less than
// 16 B per extra task. Any hook that keeps a record per task (about
// 200 B each for trace.Recorder) fails it, so such hooks must stay opt-in.
func TestServerHeapIsFlat(t *testing.T) {
	const (
		n               = 10000
		batch           = 500
		maxBytesPerTask = 16.0
	)
	s := startedServer(t, sim.SimClock{}, 0)
	defer s.Close()

	// settle submits tasks in batches and waits for each batch to settle,
	// so the inbox and the engine's pending-event high-water mark are the
	// same in both phases and only per-task retention shows as growth.
	settled := make(chan struct{}, batch) // one slot per task of a batch
	then := func(model.Outcome) { settled <- struct{}{} }
	settle := func(count int) {
		for done := 0; done < count; done += batch {
			for i := 0; i < batch; i++ {
				if _, err := s.Submit(serveTask(), then); err != nil {
					t.Fatalf("Submit: %v", err)
				}
			}
			timeout := time.After(10 * time.Second)
			for i := 0; i < batch; i++ {
				select {
				case <-settled:
				case <-timeout:
					t.Fatalf("%d tasks still in flight", s.InFlight())
				}
			}
		}
	}
	liveHeap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}

	settle(n)
	before := liveHeap()
	settle(2 * n)
	after := liveHeap()

	if got := s.Accepted(); got != 3*n {
		t.Fatalf("accepted %d tasks, want %d", got, 3*n)
	}
	perTask := (after - before) / float64(2*n)
	t.Logf("live heap %.0f → %.0f B: %.1f B per extra task", before, after, perTask)
	if perTask >= maxBytesPerTask {
		t.Fatalf("live heap grew %.1f B per settled task, want < %g", perTask, maxBytesPerTask)
	}
}
