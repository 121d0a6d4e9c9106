package main

import (
	"sync/atomic"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/simclock"
)

// repTrace collects what the decorators see during one traced rep. The
// decorators wrap the seams the engine already exposes — the transport,
// the stop set, the trace sink and the clock — so every layer is measured
// from outside, with no change to the program.
type repTrace struct {
	rec   *recorder
	trace string // span trace id of this rep
	scan  int    // the rep's scan span: parent of everything recorded here

	write    boundary // conn.write: WritePacket / WriteBatch
	readBusy boundary // conn.read entered with responses pending
	readWait boundary // conn.read entered with an empty inbox: receiver idle
	has      boundary // stopset.has, one call in hasTimedEvery timed
	sleep    boundary // clock.park via Sleep: pacer, round floor, drains
	park     boundary // clock.park via Park: phase join, idle receive worker

	depth      []atomic.Int32 // Pending() at each read entry, clamped to maxDepth-1
	depthMax   atomic.Int64
	readerPkts [8]atomic.Int64

	lookups, hits, adds atomic.Int64 // stop set
	hops                atomic.Int64 // trace sink

	drainWait time.Duration // Sleep(drainWait) is recorded as a drain span

	// Every probeEvery-th probe written and replyEvery-th reply read are
	// copied, up to the slice lengths: the workload's own packet mix for
	// the isolated measurements.
	probeN, replyN atomic.Int64
	probes         [][]byte
	replies        [][]byte
}

const (
	maxDepth      = 1 << 16
	hasTimedEvery = 16
	probeEvery    = 61 // prime, so the two probes a destination gets per round do not alias
	replyEvery    = 7
	sampleCap     = 16384
)

func newRepTrace(rec *recorder, trace string, scanSpan int, drainWait time.Duration) *repTrace {
	t := &repTrace{rec: rec, trace: trace, scan: scanSpan, drainWait: drainWait,
		depth:   make([]atomic.Int32, maxDepth),
		probes:  make([][]byte, sampleCap),
		replies: make([][]byte, sampleCap),
	}
	for _, b := range []struct {
		b    *boundary
		name string
	}{
		{&t.write, "conn.write"}, {&t.readBusy, "conn.read"}, {&t.readWait, "conn.read.idle"},
		{&t.has, "stopset.has"}, {&t.sleep, "clock.park"}, {&t.park, "clock.park"},
	} {
		b.b.name, b.b.rec, b.b.parent, b.b.trace = b.name, rec, scanSpan, trace
	}
	return t
}

func (t *repTrace) boundaries() []boundaryStats {
	var out []boundaryStats
	for _, b := range []*boundary{&t.write, &t.readBusy, &t.readWait, &t.has, &t.sleep, &t.park} {
		if b.calls.Load() > 0 {
			out = append(out, b.stats())
		}
	}
	return out
}

// keep copies pkt into slot n/every of into when n is a multiple of every.
// Each slot has exactly one writer, so concurrent senders need no lock.
func keep(into [][]byte, n int64, every int64, pkt []byte) {
	if n%every == 0 {
		if slot := n / every; slot < int64(len(into)) {
			into[slot] = append([]byte(nil), pkt...)
		}
	}
}

func compact(pkts [][]byte) [][]byte {
	var out [][]byte
	for _, p := range pkts {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// depthQuantiles returns the median (at most maxDepth-1) and the maximum
// inbox depth seen at read entry.
func (t *repTrace) depthQuantiles() (p50, max float64) {
	var total, seen int64
	for i := range t.depth {
		total += int64(t.depth[i].Load())
	}
	for i := range t.depth {
		seen += int64(t.depth[i].Load())
		if seen > 0 && seen*2 >= total {
			p50 = float64(i)
			break
		}
	}
	return p50, float64(t.depthMax.Load())
}

// tracedConn times every call across the transport seam. It is returned
// through traceConn, which adds WriteBatch and ReadBatch exactly when the
// inner conn has them, so the engine takes the same path it would untraced.
type tracedConn struct {
	inner   core.PacketConn
	pending func() int
	t       *repTrace
}

type pendinger interface{ Pending() int }

func traceConn(inner core.PacketConn, t *repTrace) core.PacketConn {
	base := &tracedConn{inner: inner, t: t, pending: func() int { return 1 }}
	if p, ok := inner.(pendinger); ok {
		base.pending = p.Pending
	}
	bw, canWrite := inner.(core.BatchWriter)
	br, canRead := inner.(core.BatchReader)
	w := batchWrite{t: t, inner: bw}
	r := batchRead{t: t, inner: br, pending: base.pending}
	switch {
	case canWrite && canRead:
		return struct {
			*tracedConn
			batchWrite
			batchRead
		}{base, w, r}
	case canWrite:
		return struct {
			*tracedConn
			batchWrite
		}{base, w}
	case canRead:
		return struct {
			*tracedConn
			batchRead
		}{base, r}
	}
	return base
}

func (c *tracedConn) WritePacket(pkt []byte) error {
	keep(c.t.probes, c.t.probeN.Add(1), probeEvery, pkt)
	t0 := time.Now()
	err := c.inner.WritePacket(pkt)
	c.t.write.observe(t0, 1)
	return err
}

func (c *tracedConn) ReadPacket(buf []byte) (int, error) {
	return c.t.read1(0, c.pending, c.inner.ReadPacket, buf)
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// read1 times one single-packet read on behalf of reader idx.
func (t *repTrace) read1(idx int, pending func() int, read func([]byte) (int, error), buf []byte) (int, error) {
	depth := pending()
	t0 := time.Now()
	n, err := read(buf)
	got := 0
	if n > 0 && err == nil {
		got = 1
		keep(t.replies, t.replyN.Add(1), replyEvery, buf[:n])
	}
	t.observeRead(idx, depth, t0, got)
	return n, err
}

func (t *repTrace) observeRead(idx, depth int, t0 time.Time, pkts int) {
	t.depth[min(depth, maxDepth-1)].Add(1)
	for d := int64(depth); ; {
		cur := t.depthMax.Load()
		if d <= cur || t.depthMax.CompareAndSwap(cur, d) {
			break
		}
	}
	t.readerPkts[idx%len(t.readerPkts)].Add(int64(pkts))
	if depth > 0 {
		t.readBusy.observe(t0, pkts)
	} else {
		t.readWait.observe(t0, pkts)
	}
}

type batchWrite struct {
	t     *repTrace
	inner core.BatchWriter
}

func (w batchWrite) WriteBatch(pkts [][]byte) (int, error) {
	for _, p := range pkts {
		keep(w.t.probes, w.t.probeN.Add(1), probeEvery, p)
	}
	t0 := time.Now()
	n, err := w.inner.WriteBatch(pkts)
	w.t.write.observe(t0, n)
	return n, err
}

type batchRead struct {
	t       *repTrace
	inner   core.BatchReader
	pending func() int
	idx     int
}

func (r batchRead) ReadBatch(bufs [][]byte, sizes []int) (int, error) {
	depth := r.pending()
	t0 := time.Now()
	n, err := r.inner.ReadBatch(bufs, sizes)
	for i := 0; i < n; i++ {
		keep(r.t.replies, r.t.replyN.Add(1), replyEvery, bufs[i][:sizes[i]])
	}
	r.t.observeRead(r.idx, depth, t0, n)
	return n, err
}

// tracedReader is the per-receiver read handle of the sharded receive
// pipeline, traced like the conn and forwarding Wake.
type tracedReader struct {
	inner   core.PacketReader
	pending func() int
	t       *repTrace
	idx     int
}

// traceReaders wraps a conn's reader factory for ConfigOf.NewReader; each
// handle it returns is numbered, so a rep can tell whether every receive
// worker saw traffic.
func traceReaders(newReader func() core.PacketReader, pending func() int, t *repTrace) func() core.PacketReader {
	next := 0
	return func() core.PacketReader {
		inner := newReader()
		base := &tracedReader{inner: inner, pending: pending, t: t, idx: next}
		next++
		if br, ok := inner.(core.BatchReader); ok {
			return struct {
				*tracedReader
				batchRead
			}{base, batchRead{t: t, inner: br, pending: pending, idx: base.idx}}
		}
		return base
	}
}

func (r *tracedReader) ReadPacket(buf []byte) (int, error) {
	return r.t.read1(r.idx, r.pending, r.inner.ReadPacket, buf)
}

func (r *tracedReader) Wake() { r.inner.Wake() }

// tracedStopSet counts every lookup and insert of the engine's stop set
// and times one lookup in hasTimedEvery: reading the clock costs more than
// the lookup it would time.
type tracedStopSet[A comparable] struct {
	inner core.StopSet[A]
	t     *repTrace
}

func (s *tracedStopSet[A]) Has(a A) bool {
	n := s.t.lookups.Add(1)
	var hit bool
	if n%hasTimedEvery == 0 {
		t0 := time.Now()
		hit = s.inner.Has(a)
		s.t.has.observe(t0, 1)
	} else {
		hit = s.inner.Has(a)
	}
	if hit {
		s.t.hits.Add(1)
	}
	return hit
}

func (s *tracedStopSet[A]) Add(a A)            { s.t.adds.Add(1); s.inner.Add(a) }
func (s *tracedStopSet[A]) ForEach(fn func(A)) { s.inner.ForEach(fn) }
func (s *tracedStopSet[A]) Size() int          { return s.inner.Size() }

// tracedSink counts the discovery events the engine records.
type tracedSink[A comparable] struct{ t *repTrace }

func (s tracedSink[A]) HopDiscovered(dst A, ttl uint8, hop A) { s.t.hops.Add(1) }
func (s tracedSink[A]) DestReached(dst A, dist uint8)         {}

// tracedClock times the engine's own waits. The network keeps the bare
// clock, so reads blocked on the inbox are not counted here — they are the
// conn.read boundary's.
type tracedClock struct {
	simclock.Waiter
	t *repTrace
}

func (c tracedClock) Sleep(d time.Duration) {
	t0 := time.Now()
	c.Waiter.Sleep(d)
	took := c.t.sleep.observe(t0, 1)
	if d == c.t.drainWait {
		c.t.rec.add("drain", c.t.scan, c.t.trace, t0, took)
	}
}

func (c tracedClock) Park(p *simclock.Parker, deadline time.Time) bool {
	t0 := time.Now()
	ok := c.Waiter.Park(p, deadline)
	c.t.park.observe(t0, 1)
	return ok
}
