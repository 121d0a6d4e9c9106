package simnet

import (
	"errors"
	"io"
	"sync"
	"time"

	"github.com/flashroute/flashroute/internal/simclock"
)

// ErrClosed is returned by writes on a closed Conn.
var ErrClosed = errors.New("simnet: connection closed")

// Backend is the per-family half of a simulated connection: what a probe
// meets in the family's network, and what its response looks like on the
// wire. Everything else about a connection — fault windows, impairment
// draws, batching, the inbox, the read handles — is Conn's.
type Backend[P any] interface {
	// Write1 takes one serialized probe, accepted at instant now, through
	// the network: parse, resolve, rate-limit, and hand every response it
	// elicits to c.Deliver together with stage. A non-nil error fails
	// that one packet.
	Write1(c *Conn[P], pkt []byte, now time.Duration, stage *[]Pending[P]) error
	// Materialize renders a scheduled response into wire bytes in buf and
	// returns their length. The payload travels by value: behind an
	// interface a pointer to the reader's local would escape to the heap,
	// once per packet.
	Materialize(buf []byte, p P) int
}

// Conn is a raw-socket-like connection from a vantage point into a
// simulated network, generic over the family's response payload. One
// goroutine may write while another reads — the decoupled sender/receiver
// design of the paper (§3.2).
type Conn[P any] struct {
	be    Backend[P]
	im    *Impairments   // the network's impairment model (shared, read-only)
	stats *DeliveryStats // the network's delivery counters (shared)
	// vantage selects the ingress path probes take into the topology and
	// the fault windows that apply: 0 is the classic vantage point, higher
	// values are cluster workers with a private first hop. The source
	// address stays the vantage point's for every value — replies route
	// back by connection, and keeping the 5-tuple identical keeps per-flow
	// load-balancer decisions invariant across vantages.
	vantage int
	imp     *ImpairState // nil unless the impairment model is enabled
	inbox   *Inbox[P]

	// Batch-path scratch, reused across calls so the steady state stays
	// allocation-free. wrMu serializes WriteBatch callers (several sender
	// shards may batch-write the same Conn; single-packet writers never
	// take it); rdScratch belongs to the Conn-level reader, of which the
	// contract allows exactly one.
	wrMu      sync.Mutex
	wrStage   []Pending[P]
	rdScratch []P
}

// NewConn opens a connection at vantage v into the network be fronts. The
// clock, epoch, impairment model (seeded by seed) and delivery counters
// are the network's, shared by all its connections.
func NewConn[P any](be Backend[P], clock simclock.Waiter, epoch time.Time, im *Impairments, seed int64, stats *DeliveryStats, v int) *Conn[P] {
	c := &Conn[P]{be: be, im: im, stats: stats, vantage: v, inbox: NewInbox[P](clock, epoch)}
	if im.Enabled() {
		c.imp = NewImpairState(seed)
	}
	return c
}

// Vantage returns the vantage the connection enters the topology at.
func (c *Conn[P]) Vantage() int { return c.vantage }

// WritePacket injects one serialized probe packet into the network. The
// write itself never blocks; the response (if any) is scheduled for
// delivery after the modeled RTT.
func (c *Conn[P]) WritePacket(pkt []byte) error {
	return c.write1(pkt, c.inbox.Elapsed(), nil)
}

// WriteBatch injects pkts in order (sendmmsg shape). It returns the
// number of packets consumed; a non-nil error with n < len(pkts) means
// pkts[n] failed — per-packet fault semantics, exactly as the equivalent
// WritePacket would have failed — and packets after it were not
// attempted. All responses elicited by the batch are committed to the
// inbox under a single lock with a single reader wakeup; per-packet
// impairment and fault draws happen in write order, so a batched write
// sequence consumes the RNG identically to the unbatched one.
func (c *Conn[P]) WriteBatch(pkts [][]byte) (int, error) {
	c.wrMu.Lock()
	defer c.wrMu.Unlock()
	// One clock read covers the whole batch: on the virtual clock no time
	// can pass while the writer runs, and fault windows — the only
	// behavior where sub-batch timing matters — re-read the clock below.
	now := c.inbox.Elapsed()
	faults := c.im.HasFaults()
	c.wrStage = c.wrStage[:0]
	n, err := len(pkts), error(nil)
	for i, pkt := range pkts {
		pktNow := now
		if faults {
			pktNow = c.inbox.Elapsed() // a window edge may split the batch on a real clock
		}
		if err = c.write1(pkt, pktNow, &c.wrStage); err != nil {
			n = i
			break
		}
	}
	// What the packets before a failure elicited is committed either way.
	if !ScheduleAllResponses(c.inbox, c.stats, c.wrStage) {
		return n, ErrClosed
	}
	return n, err
}

// write1 is the per-packet write path at instant now. Responses are
// delivered straight to the inbox (stage nil, the WritePacket path) or
// appended to *stage for one batched commit.
func (c *Conn[P]) write1(pkt []byte, now time.Duration, stage *[]Pending[P]) error {
	// Transport-fault windows: a faulted write fails before the probe
	// enters the network at all — not counted as sent, no impairment
	// draws consumed, so zero-fault runs are bit-identical.
	if c.im.HasFaults() && c.im.WriteFault(now, c.vantage) {
		c.stats.WriteFaults.Add(1)
		return &TransientError{Op: "write"}
	}
	return c.be.Write1(c, pkt, now, stage)
}

// ProbeCopies draws the outbound fate of one well-formed probe: how many
// copies of it traverse the network. 0 is a lost probe — it never reaches
// a hop, so the backend must neither resolve it nor debit a rate limit; 2
// is a duplicated one. Always 1 with impairments off.
func (c *Conn[P]) ProbeCopies() int {
	if c.imp == nil {
		return 1
	}
	copies := c.imp.ProbeFate(c.im)
	switch copies {
	case 0:
		c.stats.ProbesLost.Add(1)
	case 2:
		c.stats.Duplicates.Add(1)
	}
	return copies
}

// Deliver schedules one emitted response for delivery at instant at,
// applying delivery-fault windows and inbound impairments (loss,
// duplication, reordering, extra jitter) when enabled. With both off it
// is exactly the plain scheduling path. With stage non-nil the surviving
// response is appended there instead — same fault and impairment draws,
// commit deferred to WriteBatch's ScheduleAllResponses.
func (c *Conn[P]) Deliver(resp P, at time.Duration, stage *[]Pending[P]) error {
	if c.im.HasFaults() {
		adj, dropped := c.im.DeliveryFault(at, c.vantage)
		if dropped {
			c.stats.FaultDropped.Add(1)
			return nil
		}
		if adj != at {
			c.stats.FaultStalled.Add(1)
			at = adj
		}
	}
	p, ok := StageResponse(c.imp, c.im, c.stats, resp, at)
	switch {
	case !ok:
	case stage != nil:
		*stage = append(*stage, p)
	case !c.inbox.Schedule(p.Payload, p.Copies, p.Base, p.Extra):
		return ErrClosed
	default:
		c.stats.Responses.Add(uint64(p.Copies))
	}
	return nil
}

// ReadPacket blocks until a response is deliverable, materializes it into
// buf, and returns its length. It returns io.EOF once the connection is
// closed and drained.
func (c *Conn[P]) ReadPacket(buf []byte) (int, error) {
	resp, ok := c.inbox.Next()
	if !ok {
		return 0, io.EOF
	}
	return c.be.Materialize(buf, resp), nil
}

// ReadBatch is the batch form of ReadPacket (recvmmsg shape): it blocks
// until a response is deliverable, then fills bufs[i]/sizes[i] with every
// response already deliverable at that instant — in the exact (delivery
// time, sequence) order consecutive ReadPacket calls would observe — up
// to len(bufs). It returns (0, io.EOF) once the connection is closed and
// drained. Like ReadPacket, at most one goroutine may use it.
func (c *Conn[P]) ReadBatch(bufs [][]byte, sizes []int) (int, error) {
	if len(c.rdScratch) < len(bufs) {
		c.rdScratch = make([]P, len(bufs))
	}
	k, ok := c.inbox.NextBatch(c.rdScratch[:len(bufs)])
	if !ok {
		return 0, io.EOF
	}
	for i := 0; i < k; i++ {
		sizes[i] = c.be.Materialize(bufs[i], c.rdScratch[i])
	}
	return k, nil
}

// Close closes the connection; pending deliverable responses may still be
// read, after which ReadPacket returns io.EOF.
func (c *Conn[P]) Close() error {
	c.inbox.Close()
	return nil
}

// Pending returns the number of scheduled, not yet read responses.
func (c *Conn[P]) Pending() int { return c.inbox.Len() }

// Reader is a per-receiver read handle on the Conn: each worker of a
// receive pipeline holds its own Reader so R workers can block on (and
// drain) the same inbox concurrently under the virtual clock.
type Reader[P any] struct {
	c       *Conn[P]
	rd      *InboxReader[P]
	scratch []P // ReadBatch staging, owned by this handle's worker
}

// NewReader opens a read handle. The plain Conn.ReadPacket and any number
// of Readers may be used on the same Conn, though engines use one or the
// other.
func (c *Conn[P]) NewReader() *Reader[P] {
	return &Reader[P]{c: c, rd: c.inbox.NewReader()}
}

// ReadPacket is Conn.ReadPacket on this handle, with one addition: it
// returns (0, nil) when the wait was interrupted by Wake before a response
// became deliverable, so the caller can service out-of-band work.
func (r *Reader[P]) ReadPacket(buf []byte) (int, error) {
	resp, ok, eof := r.rd.Next()
	if eof {
		return 0, io.EOF
	}
	if !ok {
		return 0, nil
	}
	return r.c.be.Materialize(buf, resp), nil
}

// ReadBatch is Conn.ReadBatch on this handle, with the Reader extension:
// it returns (0, nil) when the wait was interrupted by Wake before any
// response became deliverable.
func (r *Reader[P]) ReadBatch(bufs [][]byte, sizes []int) (int, error) {
	if len(r.scratch) < len(bufs) {
		r.scratch = make([]P, len(bufs))
	}
	k, eof := r.rd.NextBatch(r.scratch[:len(bufs)])
	if eof {
		return 0, io.EOF
	}
	for i := 0; i < k; i++ {
		sizes[i] = r.c.be.Materialize(bufs[i], r.scratch[i])
	}
	return k, nil
}

// Wake interrupts this handle's blocked (or next) ReadPacket.
func (r *Reader[P]) Wake() { r.rd.Wake() }
