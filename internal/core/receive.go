package core

import (
	"io"
	"sync"
	"time"

	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/trace"
)

// This file implements the receive pipeline; Config.Receivers sizes it.
//
// R workers each own a PacketReader handle onto the connection (a lone
// worker without Config.NewReader reads the connection itself). A worker
// pulls raw packets, runs Family.ParseReply in parallel with its siblings,
// and then applies block-affinity dispatch: a decoded reply for block b is
// processed by worker b % R. Replies a worker parsed for a block it does
// not own are pushed onto the owner's reply ring and the owner is woken;
// replies for its own blocks it processes inline. The result is a single
// writer per DCB pass-state, per stop-set shard home, and per trace-store
// stripe, with all replies of a block applied serially by one goroutine.
//
// Termination: the engine closes the connection after the last drain;
// each reader then returns EOF once the in-flight responses are drained.
// A worker that hits EOF increments recvEOF and — if it was the last —
// wakes everyone. Because every ring push happens before the pusher's
// recvEOF increment, a drain performed after observing recvEOF == R is
// guaranteed to see the final contents of the ring.

// stopSetOf is the engine's Doubletree stop set (§3.2): open-addressed
// tables (the result store's interface-table type, 4 B/slot for IPv4),
// sharded by address hash so R receive workers can insert concurrently.
// A single shard has a single user (the lone receive worker), so its
// locking is elided.
type stopSetOf[A comparable] struct {
	fam    Family[A]
	shards []stopShard[A]
}

type stopShard[A comparable] struct {
	mu sync.RWMutex
	t  trace.InterfaceTableOf[A]
}

// newStopSet builds a stop set with the given shard count, pre-sized for
// hint entries in total; the tables grow on demand past that.
func newStopSet[A comparable](fam Family[A], shards, hint int) *stopSetOf[A] {
	if shards < 1 {
		shards = 1
	}
	ss := &stopSetOf[A]{fam: fam, shards: make([]stopShard[A], shards)}
	for i := range ss.shards {
		ss.shards[i].t = trace.NewInterfaceTableOf(fam.HashAddr, hint/shards)
	}
	return ss
}

// shardOf picks the home shard from the high bits of an address hash; the
// shard's table masks the low ones. Picking on the low bits too would
// leave each shard of a 2-shard set only the slots of one parity.
func (ss *stopSetOf[A]) shardOf(h uint64) *stopShard[A] {
	return &ss.shards[(h>>32)%uint64(len(ss.shards))]
}

// Has reports membership. Reads dominate (one per TTL-exceeded reply), so
// sharded mode takes only the read side of the shard lock.
func (ss *stopSetOf[A]) Has(a A) bool {
	h := ss.fam.HashAddr(a)
	if len(ss.shards) == 1 {
		return ss.shards[0].t.HasHashed(a, h)
	}
	sh := ss.shardOf(h)
	sh.mu.RLock()
	ok := sh.t.HasHashed(a, h)
	sh.mu.RUnlock()
	return ok
}

// Add inserts a into its home shard.
func (ss *stopSetOf[A]) Add(a A) {
	h := ss.fam.HashAddr(a)
	if len(ss.shards) == 1 {
		ss.shards[0].t.AddHashed(a, h)
		return
	}
	sh := ss.shardOf(h)
	sh.mu.Lock()
	sh.t.AddHashed(a, h)
	sh.mu.Unlock()
}

// ForEach visits every member under the shard read locks (checkpoint
// encoding; safe concurrently with Add, though the caller normally holds
// the checkpoint barrier that quiesces receivers anyway).
func (ss *stopSetOf[A]) ForEach(fn func(A)) {
	for i := range ss.shards {
		sh := &ss.shards[i]
		sh.mu.RLock()
		sh.t.ForEach(fn)
		sh.mu.RUnlock()
	}
}

// Size sums the shard cardinalities (post-scan use).
func (ss *stopSetOf[A]) Size() int {
	n := 0
	for i := range ss.shards {
		sh := &ss.shards[i]
		sh.mu.RLock()
		n += sh.t.Len()
		sh.mu.RUnlock()
	}
	return n
}

// memoryBytes sums the shard tables' backing arrays (Footprint).
func (ss *stopSetOf[A]) memoryBytes() uint64 {
	var n uint64
	for i := range ss.shards {
		sh := &ss.shards[i]
		sh.mu.RLock()
		n += sh.t.MemoryBytes()
		sh.mu.RUnlock()
	}
	return n
}

// dispatchedReply is one decoded reply in flight between receive workers.
type dispatchedReply[A comparable] struct {
	block int
	reply Reply[A]
}

// replyRing is the per-worker dispatch queue: any worker pushes, only the
// owner drains. A mutex-guarded growable ring rather than a Go channel
// because draining must never block (workers drain opportunistically
// between reads) and the steady state must not allocate — the ring grows
// to the peak in-flight burst once and is then reused.
type replyRing[A comparable] struct {
	mu   sync.Mutex
	buf  []dispatchedReply[A]
	head int
	n    int
}

func (q *replyRing[A]) push(d dispatchedReply[A]) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = d
	q.n++
	q.mu.Unlock()
}

// grow doubles the ring (power-of-two sizes keep the index mask cheap).
// Caller holds q.mu.
func (q *replyRing[A]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 64
	}
	nb := make([]dispatchedReply[A], size)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = nb, 0
}

// drainInto appends all queued replies to dst and empties the ring.
func (q *replyRing[A]) drainInto(dst []dispatchedReply[A]) []dispatchedReply[A] {
	q.mu.Lock()
	for ; q.n > 0; q.n-- {
		dst = append(dst, q.buf[q.head])
		q.head = (q.head + 1) & (len(q.buf) - 1)
	}
	q.head = 0
	q.mu.Unlock()
	return dst
}

// connReader is the lone worker's read handle when Config.NewReader is
// nil: the connection's own ReadPacket. Wake has nobody to interrupt — a
// lone worker never has a peer dispatching to it.
type connReader struct{ PacketConn }

func (connReader) Wake() {}

// recvWorkerOf is one worker of the receive pipeline.
type recvWorkerOf[A comparable] struct {
	s      *ScannerOf[A]
	reader PacketReader
	// parker is the worker's own blocking site for the post-EOF join;
	// while reading, the worker blocks inside the reader instead.
	parker *simclock.Parker
	// store is this worker's stripe of the striped result store.
	store *trace.StoreOf[A]

	ring    replyRing[A]
	scratch []dispatchedReply[A]

	// The receive arena: preallocated packet buffers bufs and the
	// per-packet lengths in sizes. With Config.Batch > 1 on a handle that
	// has the BatchReader capability, batch is that capability and the
	// arena holds Config.Batch buffers filled per ReadBatch call; otherwise
	// batch is nil and ReadPacket fills the arena's single buffer.
	batch BatchReader
	bufs  [][]byte
	sizes []int
}

// newRecvWorker builds worker i of s's pipeline with its read handle,
// store stripe and receive arena.
func newRecvWorker[A comparable](s *ScannerOf[A], i int) *recvWorkerOf[A] {
	w := &recvWorkerOf[A]{
		s:       s,
		parker:  s.clock.NewParker(),
		store:   s.striped.Stripe(i),
		scratch: make([]dispatchedReply[A], 0, 64),
	}
	// The capability is looked up on what the worker actually reads from.
	var handle any = s.conn
	w.reader = connReader{s.conn}
	if s.cfg.NewReader != nil {
		w.reader = s.cfg.NewReader()
		handle = w.reader
	}
	n := 1
	if br, ok := handle.(BatchReader); ok && s.cfg.Batch > 1 {
		w.batch, n = br, s.cfg.Batch
	}
	w.bufs, w.sizes = makeRecvArena(n)
	return w
}

// wake releases the owner wherever it is blocked: inside its reader
// (waiting for packets) or on its own parker (post-EOF join). Unpark
// signals are retained, so over-waking only costs a spurious wakeup.
func (w *recvWorkerOf[A]) wake() {
	w.reader.Wake()
	w.s.clock.Unpark(w.parker)
}

// drain processes every reply currently queued for this worker.
func (w *recvWorkerOf[A]) drain() {
	w.scratch = w.ring.drainInto(w.scratch[:0])
	for i := range w.scratch {
		d := &w.scratch[i]
		w.s.processReply(w.store, d.block, &d.reply)
	}
}

// loop is the worker body: drain dispatched replies, read up to an
// arena of packets, parse and dispatch them; on EOF, join the termination
// protocol described at the top of the file.
func (w *recvWorkerOf[A]) loop() {
	s := w.s
	for {
		w.drain()
		// Nothing read with a nil err is a wake interrupt (or a polling
		// transport with nothing ready); the top-of-loop drain picks up
		// whatever the wake dispatched.
		var err error
		if w.batch != nil {
			var k int
			k, err = w.batch.ReadBatch(w.bufs, w.sizes)
			for i := 0; i < k; i++ {
				w.handlePacket(w.bufs[i][:w.sizes[i]])
			}
		} else {
			var n int
			if n, err = w.reader.ReadPacket(w.bufs[0]); n > 0 {
				w.handlePacket(w.bufs[0][:n])
			}
		}
		if err != nil {
			if err != io.EOF {
				s.readErrors.Add(1)
			}
			break
		}
	}

	// This reader is finished: all its pushes are visible before the
	// counter increment below. The last reader to finish wakes every
	// worker so their final drains run.
	if int(s.recvEOF.Add(1)) == len(s.recvWorkers) {
		for _, o := range s.recvWorkers {
			o.wake()
		}
	}
	for int(s.recvEOF.Load()) < len(s.recvWorkers) {
		w.drain()
		s.clock.Park(w.parker, time.Time{})
	}
	w.drain()
}

// handlePacket parses one raw response and applies block-affinity
// dispatch: replies for blocks this worker owns are processed inline,
// the rest are pushed to the owner's ring.
func (w *recvWorkerOf[A]) handlePacket(pkt []byte) {
	s := w.s
	if block, r, ok := s.parseResponse(pkt); ok {
		if owner := s.recvWorkers[block%len(s.recvWorkers)]; owner != w {
			owner.ring.push(dispatchedReply[A]{block: block, reply: r})
			owner.wake()
		} else {
			s.processReply(w.store, block, &r)
		}
	}
}
