package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"offload/internal/core"
	"offload/internal/metrics"
	"offload/internal/model"
	"offload/internal/rng"
	"offload/internal/sim"
	"offload/internal/workload"
)

// serve-http: the real `offloadd -simclock` binary in its own process on
// loopback, driven by an open-loop POST /v1/tasks stream from this
// process over at most nproc connections (the 1 Hz /metrics scrape
// included). It is the only workload through HTTP/JSON, admission, the
// Realtime inbox and registry reads.
const (
	nominalRate  = 2000.0 // req/s at which p50_ms is measured
	p50LimitMs   = 2.0    // latency limit of the serve_rps search
	kneeGrowth   = 1.25   // ladder factor of the serve_rps search
	kneeSteps    = 12     // most ladder rates probed
	kneeRefine   = 3      // bisection probes after the first failure
	kneeTries    = 2      // attempts before a rate counts as failed
	daemonStarts = 9      // set-ups per run; setup_s is their median
	distinctBody = 20_000 // distinct request bodies, reused cyclically
	replyTimeout = 5 * time.Second
	// giveUpLate ends a search step once the generator runs this far
	// behind its schedule: the offered rate is then plainly beyond the
	// daemon, and waiting out the backlog would only burn the budget.
	giveUpLate = 250 * time.Millisecond
)

// sendRecord is one open-loop request: when it was due, sent and
// answered, as offsets from the phase start, and its outcome.
type sendRecord struct {
	sent            bool // false: the phase ended before it went out
	due, out, reply time.Duration
	status          int // HTTP status; 0 when no reply came
	id              uint64
}

// ok reports whether the request succeeded: a 2xx reply with a task ID.
func (r sendRecord) ok() bool { return r.status >= 200 && r.status < 300 && r.id != 0 }

// latency is timed from when the request was due, so a stall also counts
// against every request it delayed.
func (r sendRecord) latency() time.Duration { return r.reply - r.due }

// lateness is how far behind its schedule the generator sent it.
func (r sendRecord) lateness() time.Duration { return r.out - r.due }

// openLoop sends requests 0..n-1, request i due at i/rate seconds after
// the phase starts, from workers goroutines sharing the schedule: each
// takes the next request, waits until it is due (not at all when late)
// and sends it. With giveUp > 0 the phase stops once a request would go
// out more than giveUp after its due time; unsent records keep sent=false.
func openLoop(n int, rate float64, workers int, giveUp time.Duration, send func(i int) (status int, id uint64)) []sendRecord {
	recs := make([]sendRecord, n)
	interval := float64(time.Second) / rate
	var next atomic.Int64
	var stop atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || stop.Load() {
					return
				}
				due := time.Duration(float64(i) * interval)
				if d := due - time.Since(start); d > 0 {
					sleepPrecise(d)
				}
				out := time.Since(start)
				if giveUp > 0 && out-due > giveUp {
					stop.Store(true)
					return
				}
				status, id := send(i)
				recs[i] = sendRecord{sent: true, due: due, out: out, reply: time.Since(start), status: status, id: id}
			}
		}()
	}
	wg.Wait()
	return recs
}

// sleepPrecise blocks the calling goroutine's thread in nanosleep.
// time.Sleep rounds waits under a millisecond up to the runtime's
// millisecond poll granularity whenever the process is otherwise idle,
// which would make the generator run up to 1 ms late at rates where
// requests are due every 250 µs. The thread's timer slack is set to 1 ns
// first; Linux lets an ordinary thread's sleep overshoot by 50 µs.
func sleepPrecise(d time.Duration) {
	const prSetTimerslack = 29
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: a failure only costs precision
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// closedRun is the result of a closed-loop phase.
type closedRun struct {
	recs    []sendRecord
	elapsed time.Duration
}

// closedLoop keeps one request outstanding per worker for dur: each
// worker sends its next request as soon as the previous reply arrives.
// Records are timed from when each request went out.
func closedLoop(dur time.Duration, workers int, send func(i int) (status int, id uint64)) closedRun {
	per := make([][]sendRecord, workers)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				out := time.Since(start)
				if out >= dur {
					return
				}
				status, id := send(int(next.Add(1) - 1))
				per[w] = append(per[w], sendRecord{sent: true, due: out, out: out, reply: time.Since(start), status: status, id: id})
			}
		}(w)
	}
	wg.Wait()
	run := closedRun{elapsed: time.Since(start)}
	for _, recs := range per {
		run.recs = append(run.recs, recs...)
	}
	return run
}

// phaseStats summarises the sent requests of one phase.
type phaseStats struct {
	sent, failed, shed int
	gaveUp             bool
	lat                []float64 // ms from due, ascending
	late               []float64 // ms, ascending
	rtt                []float64 // µs from send to reply, ascending
}

func summarise(recs []sendRecord) phaseStats {
	var s phaseStats
	for _, r := range recs {
		if !r.sent {
			s.gaveUp = true
			continue
		}
		s.sent++
		if !r.ok() {
			s.failed++
		}
		if r.status == http.StatusTooManyRequests {
			s.shed++
		}
		s.lat = append(s.lat, float64(r.latency())/1e6)
		s.late = append(s.late, float64(r.lateness())/1e6)
		s.rtt = append(s.rtt, float64(r.reply-r.out)/1e3)
	}
	sort.Float64s(s.lat)
	sort.Float64s(s.late)
	sort.Float64s(s.rtt)
	return s
}

// searchKnee returns the highest rate at which probe passes. It probes
// the ladder start, start·growth, ... (at most steps rates) in increasing
// order until the first failure, then bisects between the last passing
// and the first failing rate refine times; no rate above the first
// failure is ever probed. A rate fails only when tries attempts in a row
// fail, so one stall of a shared machine does not end the ladder early.
// It returns 0 when no probed rate passes.
func searchKnee(start, growth float64, steps, refine, tries int, probe func(rate float64) bool) (best float64, probed []float64) {
	passes := func(r float64) bool {
		for i := 0; i < tries; i++ {
			probed = append(probed, r)
			if probe(r) {
				return true
			}
		}
		return false
	}
	lo, hi := 0.0, 0.0
	r := start
	for i := 0; i < steps; i++ {
		if !passes(r) {
			hi = r
			break
		}
		lo = r
		r *= growth
	}
	if hi == 0 {
		return lo, probed
	}
	for i := 0; i < refine; i++ {
		mid := (lo + hi) / 2
		if passes(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probed
}

// daemon is one offloadd process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited
	err  error         // exit status, valid after done

	mu  sync.Mutex
	log strings.Builder // stderr
}

// startDaemon launches offloadd on a free loopback port and returns once
// /readyz answers 200, with the time that took.
func startDaemon(bin string, seed uint64) (*daemon, time.Duration, error) {
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-simclock", "-addr", "127.0.0.1:0", "-seed", strconv.FormatUint(seed, 10))
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	addr := make(chan string, 1)
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting offloadd: %w", err)
	}
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.log.WriteString(line + "\n")
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "offloadd: serving on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	go func() {
		reader.Wait() // Wait closes the pipe: read it to the end first
		d.err = d.cmd.Wait()
		close(d.done)
	}()

	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-d.done:
		return nil, 0, fmt.Errorf("offloadd exited before serving: %v\n%s", d.err, d.stderr())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("offloadd did not report its address")
	}
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("offloadd not ready after 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	client.CloseIdleConnections()
	return d, time.Since(t0), nil
}

func (d *daemon) stderr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// stop sends SIGTERM and waits for the graceful drain to finish.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		return d.err
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("offloadd did not exit within 60s of SIGTERM")
	}
}

// kill ends the process at once and waits for it; safe after exit.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // it may have exited meanwhile; done tells
	<-d.done
}

// scrape is one GET /metrics sample.
type scrape struct {
	at, took time.Duration // offset from the load start, and duration
	ok       bool
	values   map[string]float64
}

// scrapeMetrics fetches and parses /metrics, keeping the serve_* samples.
func scrapeMetrics(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	fams, err := metrics.ParseExposition(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if len(s.Labels) == 0 {
				out[strings.TrimSuffix(s.Name, "_total")] = s.Value
			}
		}
	}
	return out, nil
}

// scraper polls /metrics once a second until stopped.
type scraper struct {
	mu      sync.Mutex
	samples []scrape
	stop    chan struct{}
	done    chan struct{}
}

func startScraper(client *http.Client, url string, origin time.Time) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			vals, err := scrapeMetrics(client, url)
			sc := scrape{at: t0.Sub(origin), took: time.Since(t0), ok: err == nil, values: vals}
			s.mu.Lock()
			s.samples = append(s.samples, sc)
			s.mu.Unlock()
		}
	}()
	return s
}

// halt stops the scraper and returns its samples.
func (s *scraper) halt() []scrape {
	close(s.stop)
	<-s.done
	return s.samples
}

// between returns the samples taken in [from, to).
func (s *scraper) between(from, to time.Duration) []scrape {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []scrape
	for _, sc := range s.samples {
		if sc.at >= from && sc.at < to {
			out = append(out, sc)
		}
	}
	return out
}

// serveTasks derives the request tasks from the seed.
func serveTasks(seed uint64) ([]*model.Task, [][]byte, error) {
	gen, err := workload.StandardMix(rng.New(rng.Derive(seed, 5)))
	if err != nil {
		return nil, nil, err
	}
	tasks := make([]*model.Task, distinctBody)
	bodies := make([][]byte, distinctBody)
	for i := range tasks {
		t := gen.Next(0)
		tasks[i] = t
		bodies[i], err = json.Marshal(map[string]any{
			"app": t.App, "input_bytes": t.InputBytes, "output_bytes": t.OutputBytes,
			"cycles": t.Cycles, "memory_bytes": t.MemoryBytes,
			"parallel_fraction": t.ParallelFraction, "deadline_s": float64(t.Deadline),
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return tasks, bodies, nil
}

// poster sends POST /v1/tasks requests with bodies taken cyclically.
type poster struct {
	client *http.Client
	url    string
	bodies [][]byte
	offset int // index of the phase's first body
}

func (p *poster) send(i int) (int, uint64) {
	body := p.bodies[(p.offset+i)%len(p.bodies)]
	resp, err := p.client.Post(p.url+"/v1/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var reply struct {
		ID uint64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return resp.StatusCode, 0
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, reply.ID
}

// inflightLimit is the most accepted-but-unsettled tasks a healthy
// daemon holds at rate: the arrivals of one latency limit. More means the
// event loop is falling behind.
func inflightLimit(rate float64) float64 { return rate*p50LimitMs/1e3 + 1 }

func runServeHTTP(cfg runConfig) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	bin := filepath.Join(cfg.binDir, "offloadd")
	tasks, bodies, err := serveTasks(cfg.seed)
	if err != nil {
		return nil, err
	}

	// Set-up: start the daemon several times; the last one serves.
	var setups []float64
	var d *daemon
	for i := 0; i < daemonStarts; i++ {
		dd, took, err := startDaemon(bin, cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < daemonStarts-1 {
			if err := dd.stop(); err != nil {
				dd.kill()
				return nil, fmt.Errorf("stopping a set-up daemon: %w", err)
			}
			continue
		}
		d = dd
	}
	defer d.kill()

	conns := runtime.NumCPU()
	client := &http.Client{
		Timeout: replyTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()
	origin := time.Now()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		tr.origin = origin
	}
	scr := startScraper(client, d.url, origin)
	post := &poster{client: client, url: d.url, bodies: bodies}
	// all holds every request of the run, timed from origin.
	var all []sendRecord
	keep := func(recs []sendRecord, from time.Duration) {
		for _, r := range recs {
			r.due, r.out, r.reply = r.due+from, r.out+from, r.reply+from
			all = append(all, r)
		}
		post.offset += len(recs)
	}
	phase := func(rate float64, dur time.Duration, giveUp time.Duration) (phaseStats, time.Duration, time.Duration) {
		from := time.Since(origin)
		recs := openLoop(int(rate*dur.Seconds()), rate, conns, giveUp, post.send)
		to := time.Since(origin)
		keep(recs, from)
		return summarise(recs), from, to
	}

	// Warm-up, then the nominal-rate phase that gives p50_ms.
	phase(nominalRate, cfg.budget/30, time.Second)
	nom, nomFrom, nomTo := phase(nominalRate, cfg.budget*2/5, 5*time.Second)
	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		scr.halt()
		return nil, err
	}
	nomP50 := percentile(nom.lat, 0.5).Value
	nomInflight := maxInflight(scr.between(nomFrom, nomTo))

	// Saturation: every connection sends its next request as soon as the
	// previous reply arrives.
	satFrom := time.Since(origin)
	sat := closedLoop(cfg.budget*9/20, conns, post.send)
	keep(sat.recs, satFrom)
	var satOK int
	for _, r := range sat.recs {
		if r.ok() {
			satOK++
		}
	}
	satRate := float64(satOK) / sat.elapsed.Seconds()

	// The open-loop knee (traced runs only): the highest offered rate
	// still within the latency limit.
	type step struct {
		rate, p50, inflight float64
		ok                  bool
		st                  phaseStats
	}
	var steps []step
	var knee float64
	if cfg.trace {
		nomOK := !nom.gaveUp && nom.failed == 0 && nomP50 <= p50LimitMs && nomInflight <= inflightLimit(nominalRate)
		nominalUsed := false
		stepDur := cfg.budget / 15
		knee, _ = searchKnee(nominalRate, kneeGrowth, kneeSteps, kneeRefine, kneeTries, func(rate float64) bool {
			if rate == nominalRate && !nominalUsed {
				// The nominal phase is the first attempt at this rate.
				nominalUsed = true
				return nomOK
			}
			time.Sleep(100 * time.Millisecond) // let the loop settle between steps
			st, from, to := phase(rate, stepDur, giveUpLate)
			p50 := percentile(st.lat, 0.5).Value
			inflight := maxInflight(scr.between(from, to))
			ok := !st.gaveUp && st.failed == 0 && p50 <= p50LimitMs && inflight <= inflightLimit(rate)
			steps = append(steps, step{rate, p50, inflight, ok, st})
			return ok
		})
	}
	samples := scr.halt()

	// Correctness: every accepted task settles, IDs are unique, and the
	// daemon drains to zero in flight and exits 0.
	var okCount int64
	ids := map[uint64]bool{}
	for _, r := range all {
		if !r.sent {
			continue
		}
		out.attempted++
		if !r.ok() {
			out.failed++
			continue
		}
		okCount++
		if ids[r.id] {
			out.problem("task ID %d returned twice", r.id)
		}
		ids[r.id] = true
	}
	final, err := waitDrained(client, d.url)
	if err != nil {
		out.problem("%v", err)
	} else if final["serve_accepted"] != float64(okCount) || final["serve_settled"] != float64(okCount) {
		out.problem("daemon accepted %.0f and settled %.0f tasks, clients got %d 2xx replies",
			final["serve_accepted"], final["serve_settled"], okCount)
	}
	client.CloseIdleConnections()
	if err := d.stop(); err != nil {
		out.problem("offloadd exit: %v", err)
	}
	if log := d.stderr(); !strings.Contains(log, " 0 tasks in flight at exit") {
		out.problem("offloadd did not drain cleanly:\n%s", log)
	}

	v := out.values
	v["setup_s"] = median(setups)
	v["p50_ms"] = nomP50
	v["tasks_per_s"] = satRate
	v["peak_rss_mb"] = rss

	p90, p99, p999 := percentile(nom.lat, 0.9), percentile(nom.lat, 0.99), percentile(nom.lat, 0.999)
	fmt.Fprintf(stderrLog, "serve-http: nominal %.0f req/s, %d sent, %d failed: p50 %.3f ms, p90 %.3f (%d beyond), p99 %.3f (%d beyond), p99.9 %.3f (%d beyond); lateness p50 %.3f p99 %.3f max %.3f ms; send-to-reply p50 %.1f us\n",
		nominalRate, nom.sent, nom.failed, nomP50, p90.Value, p90.Beyond, p99.Value, p99.Beyond, p999.Value, p999.Beyond,
		percentile(nom.late, 0.5).Value, percentile(nom.late, 0.99).Value, percentile(nom.late, 1).Value, percentile(nom.rtt, 0.5).Value)
	fmt.Fprintf(stderrLog, "serve-http: saturation %d requests over %d connections in %.2fs = %.0f req/s\n",
		len(sat.recs), conns, sat.elapsed.Seconds(), satRate)
	for _, s := range steps {
		fmt.Fprintf(stderrLog, "serve-http: step %.0f req/s: sent %d failed %d gave-up %v p50 %.3f ms lateness p50 %.3f ms inflight max %.0f ok %v\n",
			s.rate, s.st.sent, s.st.failed, s.st.gaveUp, s.p50, percentile(s.st.late, 0.5).Value, s.inflight, s.ok)
	}
	fmt.Fprintf(stderrLog, "serve-http: %d scrapes; daemon peak RSS %.1f MB\n", len(samples), rss)

	if cfg.trace {
		v["serve.knee_rps"] = knee
		v["serve.p90_ms"], v["serve.p90_beyond"] = p90.Value, float64(p90.Beyond)
		v["serve.p99_ms"], v["serve.p99_beyond"] = p99.Value, float64(p99.Beyond)
		v["serve.p999_ms"], v["serve.p999_beyond"] = p999.Value, float64(p999.Beyond)
		v["serve.lateness_ms"] = percentile(nom.late, 0.99).Value
		v["serve.http_rtt_us"] = percentile(nom.rtt, 0.5).Value
		v["serve.shed"] = float64(summarise(all).shed)
		v["serve.inflight_max"] = maxInflight(samples)
		var took []float64
		for _, s := range samples {
			if s.ok {
				took = append(took, float64(s.took)/1e6)
			}
		}
		v["metrics.scrape_ms"] = median(took)
		for _, r := range all {
			if r.sent && r.due >= nomFrom && r.due < nomTo {
				tr.record("http.POST /v1/tasks", origin.Add(r.out), origin.Add(r.reply))
			}
		}
		for _, s := range samples {
			tr.record("http.GET /metrics", origin.Add(s.at), origin.Add(s.at+s.took))
		}
		if err := serveInProcess(cfg, tasks, tr, v); err != nil {
			return nil, err
		}
		v["serve.http_overhead_us"] = v["serve.http_rtt_us"] - v["serve.submit_us"]
		out.spans = tr
	}
	return out, nil
}

// maxInflight returns the largest serve_inflight among the samples.
func maxInflight(samples []scrape) float64 {
	m := 0.0
	for _, s := range samples {
		if s.ok && s.values["serve_inflight"] > m {
			m = s.values["serve_inflight"]
		}
	}
	return m
}

// waitDrained polls /metrics until nothing is in flight and returns the
// final sample.
func waitDrained(client *http.Client, url string) (map[string]float64, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		vals, err := scrapeMetrics(client, url)
		if err == nil && vals["serve_inflight"] == 0 {
			return vals, nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("%.0f tasks still in flight", vals["serve_inflight"])
			}
			return nil, fmt.Errorf("daemon did not drain: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// inProcessDur is how long each in-process phase of a traced serve run
// lasts.
const inProcessDur = 2 * time.Second

// serveInProcess times core.Server.Submit and SubmitWait without HTTP, at
// the nominal open-loop schedule, on the configuration offloadd serves,
// and measures the serve path's layers behind the inbox.
func serveInProcess(cfg runConfig, tasks []*model.Task, tr *tracer, v map[string]float64) error {
	base := liveHeapBytes()
	r0 := readRuntime()
	t0 := time.Now()
	srv, err := core.NewServer(decideConfig(cfg.seed), sim.SimClock{}, 100000)
	if err != nil {
		return err
	}
	v["core.build_s"] = time.Since(t0).Seconds()
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	r1 := readRuntime()
	v["core.setup_alloc_mb"] = r0.allocMB(r1)

	conns := runtime.NumCPU()
	n := int(nominalRate * inProcessDur.Seconds())
	clone := func(i int) *model.Task {
		t := *tasks[i%len(tasks)]
		t.ID = 0
		return &t
	}
	var mu sync.Mutex
	var submitUs, waitUs []float64
	timed := func(name string, into *[]float64, call func(*model.Task) error) func(int) (int, uint64) {
		return func(i int) (int, uint64) {
			task := clone(i)
			s := time.Now()
			err := call(task)
			e := time.Now()
			mu.Lock()
			*into = append(*into, float64(e.Sub(s))/1e3)
			tr.record(name, s, e)
			mu.Unlock()
			if err != nil {
				return 0, 0
			}
			return http.StatusAccepted, uint64(task.ID)
		}
	}
	recs := openLoop(n, nominalRate, conns, 0, timed("core.Server.Submit", &submitUs, func(t *model.Task) error {
		_, err := srv.Submit(t, nil)
		return err
	}))
	recs = append(recs, openLoop(n, nominalRate, conns, 0, timed("core.Server.SubmitWait", &waitUs, func(t *model.Task) error {
		_, err := srv.SubmitWait(context.Background(), t)
		return err
	}))...)
	for _, r := range recs {
		if !r.ok() {
			return errors.New("in-process submission failed")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if left, err := srv.Drain(ctx); err != nil || left != 0 {
		return fmt.Errorf("in-process server drain: %d left: %v", left, err)
	}
	r2 := readRuntime()
	sys := srv.System() // the loop has stopped: safe to read
	v["run.alloc_mb"] = r1.allocMB(r2)
	v["runtime.gc_cpu_frac"] = r1.gcFrac(r2)
	v["trace.retained_b_per_task"] = (liveHeapBytes() - base) / float64(2*n)
	for k, x := range substrateCounts(sys.Env) {
		v[k] = x
	}
	v["sim.events"] = float64(sys.Eng.Fired())
	sort.Float64s(submitUs)
	sort.Float64s(waitUs)
	v["serve.submit_us"] = percentile(submitUs, 0.5).Value
	v["serve.submitwait_us"] = percentile(waitUs, 0.5).Value

	// Decide runs on the loop inside NewServer's own scheduler, so it is
	// timed afterwards on that scheduler, its environment and predictor.
	sample := make([]*model.Task, 0, 1000)
	for i := 0; i < 1000; i++ {
		sample = append(sample, clone(i))
	}
	sampleDecide(tr, sys.Scheduler, sample)
	if pool := sys.Env.Functions; pool != nil {
		// EstimateFor runs inside the deadline-aware Decide; time it on its
		// own on the same inputs.
		var chooses []chooseSample
		for _, task := range sample {
			cycles := sys.Scheduler.Predictor().PredictCycles(task)
			tr.begin(spanEstimate)
			_, _ = pool.EstimateFor(task, cycles) // timed for its cost only
			tr.end()
			chooses = append(chooses, chooseSample{task, cycles})
		}
		v["alloc.choose_ns"] = tr.meanNs(spanEstimate, false)
		v["alloc.choose_bytes"] = chooseBytes(pool, chooses)
	}
	calls := float64(sys.Stats().Total())
	v["sched.decide_ns"] = tr.meanNs(spanDecide, false)
	v["sched.decide_self_ns"] = tr.meanNs(spanDecide, true)
	v["sched.decide_calls"] = calls
	// Share of the loop's wall time the offered nominal rate spends in
	// Decide.
	v["sched.decide_share"] = tr.meanNs(spanDecide, false) * nominalRate / 1e9
	v["sched.predict_ns"] = tr.meanNs(spanPredict, false)
	runtime.KeepAlive(srv)
	return nil
}
