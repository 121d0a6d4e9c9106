package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	flashroute "github.com/flashroute/flashroute"
	"github.com/flashroute/flashroute/internal/served"
)

const (
	servedClients  = 2 // closed loop: each submits its next job when the last one's results are read
	servedPollWait = 2 * time.Millisecond
)

// servedJobsPerRep is how many jobs the clients push through one daemon.
func servedJobsPerRep(quick bool) int {
	if quick {
		return 8
	}
	return 12
}

// scratchRoot is where the benchmark may write: .bench_build at the root
// of the checkout, which .gitignore names. Everything under it that this
// process creates is removed before it exits.
func scratchRoot() (string, error) {
	root := "."
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		root = ".."
	}
	dir := filepath.Join(root, ".bench_build", "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}

// servedSpec is job i of a run: an IPv4 virtual-clock scan at the paper's
// rate scaled to the universe, default checkpointing.
func servedSpec(seed int64, blocks int) served.JobSpec {
	return served.JobSpec{Blocks: blocks, Seed: seed, PPS: scaledPPS(blocks)}
}

// jobResult is what one client saw of one job.
type jobResult struct {
	err                     error
	refused                 bool
	latency, toResult       time.Duration // submit -> first poll that sees done / -> results read
	submit, queueWait, ttfb time.Duration
	read                    time.Duration // results body, after the first byte
	status                  []time.Duration
	bytes                   int64
	sum                     [sha256.Size]byte
	probes                  uint64
	interfaces              int
}

// servedClient is one closed-loop HTTP client; in a traced rep it records
// a job span with its http.* children.
type servedClient struct {
	http *http.Client
	base string
	rc   *repCtx
}

// do sends one request as a child span of parent and returns the response
// once the headers are in.
func (c *servedClient) do(name string, parent int, method, path string, body []byte) (*http.Response, func(), error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	end := func() {}
	if c.rc.traced() {
		id := c.rc.rec.begin(name, parent, c.rc.trace)
		// The handler wrapper hangs its own span under this one.
		req.Header.Set(spanHeader, strconv.Itoa(id))
		end = func() { c.rc.rec.end(id) }
	}
	resp, err := c.http.Do(req)
	if err != nil {
		end()
		return nil, nil, err
	}
	return resp, end, nil
}

func (c *servedClient) runJob(spec served.JobSpec) (r jobResult) {
	body, err := json.Marshal(spec)
	if err != nil {
		r.err = err
		return r
	}
	job := 0
	if c.rc.traced() {
		job = c.rc.rec.begin("job", c.rc.rep, c.rc.trace)
		defer c.rc.rec.end(job)
	}
	start := time.Now()
	resp, end, err := c.do("http.submit", job, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		r.err = err
		return r
	}
	var submitted struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	end()
	r.submit = time.Since(start)
	if resp.StatusCode != http.StatusAccepted {
		r.refused = true
		r.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return r
	}
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}

	for {
		t0 := time.Now()
		resp, end, err := c.do("http.status", job, http.MethodGet, "/v1/jobs/"+submitted.ID, nil)
		if err != nil {
			r.err = err
			return r
		}
		var st served.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		end()
		r.status = append(r.status, time.Since(t0))
		if err != nil {
			r.err = fmt.Errorf("status: %w", err)
			return r
		}
		if st.State != served.StateQueued && r.queueWait == 0 {
			r.queueWait = time.Since(start)
		}
		if st.State == served.StateDone {
			r.latency = time.Since(start)
			r.probes, r.interfaces = st.Probes, st.Interfaces
			break
		}
		if st.State != served.StateQueued && st.State != served.StateRunning {
			r.err = fmt.Errorf("job %s ended %s: %s", submitted.ID, st.State, st.Error)
			return r
		}
		time.Sleep(servedPollWait)
	}

	t0 := time.Now()
	resp, end, err = c.do("http.results", job, http.MethodGet, "/v1/jobs/"+submitted.ID+"/results", nil)
	if err != nil {
		r.err = err
		return r
	}
	r.ttfb = time.Since(t0)
	h := sha256.New()
	r.bytes, err = io.Copy(h, resp.Body)
	resp.Body.Close()
	end()
	r.read = time.Since(t0) - r.ttfb
	r.toResult = time.Since(start)
	if err != nil || resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("results: HTTP %d, %v", resp.StatusCode, err)
		return r
	}
	h.Sum(r.sum[:0])
	return r
}

const spanHeader = "Bench-Span"

// traceHandler wraps the daemon's HTTP handler: the time a request spends
// inside the daemon becomes a served.handle span under the client span that
// sent it, so a client span's self time is the HTTP stack and the loopback.
func traceHandler(h http.Handler, rc *repCtx) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil { // not sent by a traced client span: the set-up's readiness probe
			h.ServeHTTP(w, r)
			return
		}
		id := rc.rec.begin("served.handle", parent, rc.trace)
		h.ServeHTTP(w, r)
		rc.rec.end(id)
	})
}

// directRun scans spec through the library, as frserved does for a job,
// and streams the routes to w.
func directRun(spec served.JobSpec, w io.Writer) (*flashroute.Result, error) {
	sim, err := flashroute.NewSimulationCIDRs(spec.SimConfig())
	if err != nil {
		return nil, err
	}
	res, err := sim.Scan(spec.ScanConfig())
	if err != nil {
		return nil, err
	}
	return res, res.WriteJSONL(w)
}

// runServed is one rep of served-jobs: start the daemon over a fresh state
// directory (set-up), let two closed-loop clients push the rep's jobs
// through its HTTP API, then run the first job's spec through the library
// and check the daemon's NDJSON against the library's JSONL byte for byte.
func runServed(rc *repCtx, blocks int) (*sample, error) {
	jobs := servedJobsPerRep(rc.quick)
	tmp, err := scratchRoot()
	if err != nil {
		return nil, err
	}
	s := &sample{targets: jobs * blocks, virtual: true}

	runtime.GC()
	heap0 := heapAlloc()
	t0 := time.Now()
	dir, err := os.MkdirTemp(tmp, "served-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := served.New(served.Config{StateDir: dir, GlobalPPS: 1_000_000, MaxActive: servedClients})
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	handler := srv.Handler()
	if rc.traced() {
		handler = traceHandler(handler, rc)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	client := &servedClient{http: ts.Client(), base: ts.URL, rc: rc}
	resp, err := client.http.Get(ts.URL + "/readyz")
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
	}
	s.setup = time.Since(t0)
	if rc.setupOnly {
		return s, nil
	}

	specs := make([]served.JobSpec, jobs)
	for i := range specs {
		specs[i] = servedSpec(rc.seed+int64(rc.index*jobs+i), blocks)
	}
	results := make([]jobResult, jobs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t1 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < jobs; i += servedClients {
				results[i] = client.runJob(specs[i])
			}
		}(c)
	}
	wg.Wait()
	s.scan, s.cpu = time.Since(t1), cpuTime()-cpu0
	runtime.ReadMemStats(&after)
	s.mallocs, s.alloced = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	// What the daemon still holds once every result has been fetched.
	runtime.GC()
	s.liveBytes = int64(heapAlloc()) - int64(heap0)
	runtime.KeepAlive(srv)

	s.series = make(map[string][]float64)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var refused, resultBytes int64
	var reading time.Duration
	for i, r := range results {
		if r.refused {
			refused++
		}
		if r.err != nil {
			return nil, fmt.Errorf("job %d: %w", i, r.err)
		}
		s.probes += r.probes
		s.interfaces += r.interfaces
		s.units = append(s.units, r.toResult.Seconds())
		s.series["served.job_latency_s"] = append(s.series["served.job_latency_s"], r.latency.Seconds())
		s.series["served.submit_ms"] = append(s.series["served.submit_ms"], ms(r.submit))
		s.series["served.queue_wait_ms"] = append(s.series["served.queue_wait_ms"], ms(r.queueWait))
		s.series["served.results_ttfb_ms"] = append(s.series["served.results_ttfb_ms"], ms(r.ttfb))
		for _, d := range r.status {
			s.series["served.status_ms"] = append(s.series["served.status_ms"], ms(d))
		}
		resultBytes += r.bytes
		reading += r.ttfb + r.read
	}
	s.set("served.refused", float64(refused))
	s.set("served.results_mb_per_s", float64(resultBytes)/1e6/reading.Seconds())

	// The same spec through the library: the base of api_overhead_ratio
	// and the byte-identity check.
	t2 := time.Now()
	h := sha256.New()
	res, err := directRun(specs[0], h)
	if err != nil {
		return nil, fmt.Errorf("direct run: %w", err)
	}
	s.set("served.direct_scan_s", time.Since(t2).Seconds())
	s.scanTime, s.rounds = res.ScanTime(), res.Rounds()
	if !bytes.Equal(h.Sum(nil), results[0].sum[:]) {
		return nil, fmt.Errorf("job 0: daemon NDJSON differs from the library's JSONL for the same spec")
	}
	if res.Probes() != results[0].probes || res.InterfaceCount() != results[0].interfaces {
		return nil, fmt.Errorf("job 0: daemon reports %d probes, %d interfaces; the library %d, %d",
			results[0].probes, results[0].interfaces, res.Probes(), res.InterfaceCount())
	}
	return s, nil
}
