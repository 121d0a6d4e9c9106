package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// sample is what one rep of a workload measured. A rep is what a user
// runs: build the simulated Internet and the scanner (setup), run the scan
// (scan), stream the result out (emit). All times are taken from outside
// the program; Result.ScanTime is kept only as the scan's own clock.
type sample struct {
	setup, scan, emit time.Duration
	cpu               time.Duration // process user+sys over setup+scan+emit
	units             []float64     // s from starting a unit of work to holding its result
	targets           int           // destinations scanned, over all jobs of the rep
	probes            uint64
	interfaces        int
	routes            int
	emitBytes         int64
	scanTime          time.Duration // Result.ScanTime
	virtual           bool          // scanTime is virtual time
	rounds            int
	liveBytes         int64  // heap still reachable once the result is in hand
	mallocs, alloced  uint64 // MemStats deltas over the scan
	storeBytes        uint64 // result store MemoryBytes (traced reps)

	// Failed or retried operations. Any non-zero fault field fails the rep.
	interrupted                         bool
	sendErrors, readErrors, ckptErrors  uint64
	sendRetries, duplicates, mismatched uint64
	unparsed                            uint64

	extra  map[string]float64   // workload-specific per-layer values
	series map[string][]float64 // per-request timings, pooled across reps
	tr     *repTrace            // traced reps only
}

func (s *sample) set(name string, v float64) {
	if s.extra == nil {
		s.extra = make(map[string]float64)
	}
	s.extra[name] = v
}

// fault says why the rep counts as failed, or "".
func (s *sample) fault() string {
	switch {
	case s.interrupted:
		return "scan interrupted"
	case s.sendErrors+s.readErrors+s.ckptErrors > 0:
		return fmt.Sprintf("send errors %d, read errors %d, checkpoint errors %d",
			s.sendErrors, s.readErrors, s.ckptErrors)
	case s.probes == 0:
		return "no probes sent"
	}
	return ""
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// repTimer takes the outside measurements of one rep. Call begin, then
// setupDone, scanDone and emitDone as the phases end, then finish with the
// values whose memory the rep should be charged for still referenced.
type repTimer struct {
	s      *sample
	heap0  uint64
	cpu0   time.Duration
	mark   time.Time
	before runtime.MemStats
}

func beginRep() *repTimer {
	runtime.GC()
	r := &repTimer{s: &sample{}, heap0: heapAlloc(), cpu0: cpuTime()}
	r.mark = time.Now()
	return r
}

func (r *repTimer) setupDone() {
	r.s.setup = time.Since(r.mark)
	runtime.ReadMemStats(&r.before)
	r.mark = time.Now()
}

func (r *repTimer) scanDone() {
	r.s.scan = time.Since(r.mark)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.s.mallocs = after.Mallocs - r.before.Mallocs
	r.s.alloced = after.TotalAlloc - r.before.TotalAlloc
	r.mark = time.Now()
}

func (r *repTimer) emitDone() { r.s.emit = time.Since(r.mark) }

// finish closes the rep: CPU over the three phases, then the heap that
// survives a collection while keep is still reachable, less the heap the
// rep started with.
func (r *repTimer) finish(keep ...any) *sample {
	r.s.cpu = cpuTime() - r.cpu0
	if len(r.s.units) == 0 {
		r.s.units = []float64{(r.s.scan + r.s.emit).Seconds()}
	}
	runtime.GC()
	r.s.liveBytes = int64(heapAlloc()) - int64(r.heap0)
	runtime.KeepAlive(keep)
	return r.s
}

// countingWriter discards what is written to it and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
