package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestOpenLoopTimesRequestsFromTheirDueTime(t *testing.T) {
	// 100 req/s from one worker: request i is due at 10·i ms. Request 0
	// stalls for 55 ms, so requests 1..5 go out late and each pays the
	// wait the stall imposed, on top of its own 1 ms service.
	recs := openLoop(8, 100, 1, 0, func(i int) (int, uint64) {
		if i == 0 {
			time.Sleep(55 * time.Millisecond)
		} else {
			time.Sleep(time.Millisecond)
		}
		return http.StatusAccepted, uint64(i + 1)
	})
	for i, r := range recs {
		if !r.sent || !r.ok() {
			t.Fatalf("request %d: %+v", i, r)
		}
		if want := time.Duration(i) * 10 * time.Millisecond; r.due != want {
			t.Fatalf("request %d due at %v, want %v", i, r.due, want)
		}
		if r.out < r.due || r.reply < r.out {
			t.Fatalf("request %d out of order: %+v", i, r)
		}
		if got := r.latency(); got != r.reply-r.due {
			t.Fatalf("latency %v is not measured from the due time", got)
		}
	}
	if late := recs[1].lateness(); late < 40*time.Millisecond {
		t.Errorf("request 1 sent only %v late behind a 55 ms stall", late)
	}
	if lat := recs[1].latency(); lat < 45*time.Millisecond {
		t.Errorf("request 1 latency %v omits the stall's wait", lat)
	}
	if late := recs[7].lateness(); late > 5*time.Millisecond {
		t.Errorf("request 7 still %v late after the backlog cleared", late)
	}
}

func TestOpenLoopGivesUpWhenFarBehind(t *testing.T) {
	recs := openLoop(100, 1000, 1, 20*time.Millisecond, func(i int) (int, uint64) {
		time.Sleep(5 * time.Millisecond) // serves 200/s against 1000/s offered
		return http.StatusAccepted, uint64(i + 1)
	})
	st := summarise(recs)
	if !st.gaveUp || st.sent == 0 || st.sent >= 100 {
		t.Fatalf("sent %d of 100, gave up %v", st.sent, st.gaveUp)
	}
}

func TestSearchKneeIsMonotoneAndStopsAtTheKnee(t *testing.T) {
	const knee = 9300.0
	var seen []float64
	best, probed := searchKnee(4000, 1.25, 12, 3, 1, func(r float64) bool {
		seen = append(seen, r)
		return r <= knee
	})
	// The ladder climbs 4000, 5000, 6250, 7812.5, 9765.625 and stops at
	// the first failure, then bisects below it.
	firstFail := -1
	for i, r := range probed {
		if r > knee {
			firstFail = i
			break
		}
		if i > 0 && r <= probed[i-1] {
			t.Fatalf("ladder not increasing: %v", probed)
		}
	}
	if firstFail < 0 {
		t.Fatalf("never probed above the knee: %v", probed)
	}
	for _, r := range probed[firstFail+1:] {
		if r >= probed[firstFail] {
			t.Fatalf("probed %g at or above the first failure %g: %v", r, probed[firstFail], probed)
		}
	}
	if best > knee || best < knee*0.95 {
		t.Fatalf("best %g, want within 5%% below %g (probed %v)", best, knee, probed)
	}
	if len(seen) != len(probed) {
		t.Fatalf("probe calls %d, reported %d", len(seen), len(probed))
	}
}

func TestSearchKneeRetriesAFailedRate(t *testing.T) {
	calls := map[float64]int{}
	best, _ := searchKnee(1000, 2, 3, 0, 2, func(r float64) bool {
		calls[r]++
		// 2000 fails once, then passes: a stall, not the knee.
		return r <= 2000 && !(r == 2000 && calls[r] == 1)
	})
	if best != 2000 || calls[2000] != 2 || calls[4000] != 2 {
		t.Fatalf("best %g, calls %v", best, calls)
	}
	if best, _ := searchKnee(1000, 2, 3, 2, 1, func(float64) bool { return false }); best != 0 {
		t.Fatalf("no rate passes, best %g", best)
	}
}

func TestFailuresCount429And5xxAndTimeouts(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) {
		case 1:
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":7}`))
		case 2:
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"overloaded"}`))
		case 3:
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"draining"}`))
		case 4:
			time.Sleep(300 * time.Millisecond) // beyond the client timeout
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":8}`))
		default:
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{}`)) // 2xx without a task ID
		}
	}))
	defer srv.Close()
	p := &poster{client: &http.Client{Timeout: 100 * time.Millisecond}, url: srv.URL, bodies: [][]byte{[]byte(`{}`)}}
	recs := openLoop(5, 1000, 1, 0, p.send)
	st := summarise(recs)
	if st.sent != 5 || st.failed != 4 || st.shed != 1 {
		t.Fatalf("sent %d failed %d shed %d, want 5, 4, 1 (%+v)", st.sent, st.failed, st.shed, recs)
	}
	if !recs[0].ok() || recs[0].id != 7 {
		t.Fatalf("first reply %+v", recs[0])
	}
	if recs[3].status != 0 {
		t.Fatalf("timed-out request recorded status %d", recs[3].status)
	}
}
