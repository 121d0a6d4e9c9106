package simnet

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/flashroute/flashroute/internal/simclock"
)

// Item is a scheduled payload in an Inbox: the payload plus its delivery
// time and a per-inbox sequence number breaking delivery-time ties
// deterministically.
type Item[P any] struct {
	DeliverAt time.Duration // since the inbox epoch
	Seq       uint64
	Payload   P
}

// Inbox is the receive side of a simulated connection: a value-typed
// binary min-heap of scheduled payloads ordered by (DeliverAt, Seq),
// drained in virtual-time order by a parked reader. It deliberately does
// not go through container/heap: the interface-based API boxes every
// pushed and popped element into an `any` allocation, which on the probe
// write path would mean one heap allocation per response in flight. The
// inlined sift operations below keep the steady-state write/read path
// allocation-free (the backing array grows amortized and is then reused).
type Inbox[P any] struct {
	clock  simclock.Waiter
	epoch  time.Time
	parker *simclock.Parker

	mu     sync.Mutex
	heap   []Item[P]
	seq    uint64
	closed bool

	// readers holds the parkers of all Reader handles (multi-reader mode).
	// It is an atomic copy-on-write snapshot so the write path can notify
	// readers without re-taking mu; nil while no Reader exists keeps the
	// classic single-reader path free of any extra cost.
	readers atomic.Pointer[[]*simclock.Parker]
}

// NewInbox creates an inbox on the clock. deliverAt values are relative
// to epoch.
func NewInbox[P any](clock simclock.Waiter, epoch time.Time) *Inbox[P] {
	return &Inbox[P]{clock: clock, epoch: epoch, parker: clock.NewParker()}
}

// Elapsed returns the clock's time since the inbox epoch — the time base
// of every DeliverAt.
func (in *Inbox[P]) Elapsed() time.Duration { return in.clock.Now().Sub(in.epoch) }

// Schedule pushes copies instances of payload, copy i deliverable at
// base+extra[i], and wakes the reader. It reports false — scheduling
// nothing — once the inbox is closed.
func (in *Inbox[P]) Schedule(payload P, copies int, base time.Duration, extra [2]time.Duration) bool {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return false
	}
	for i := 0; i < copies; i++ {
		in.push(Item[P]{DeliverAt: base + extra[i], Seq: in.seq, Payload: payload})
		in.seq++
	}
	in.mu.Unlock()
	in.wakeAll()
	return true
}

// Pending is one staged response awaiting scheduling: the payload with
// its impairment-resolved copy count and delivery offsets. Staging
// (StageResponse) is split from committing (ScheduleAllResponses) so a
// whole write batch pays for the inbox lock and the reader wakeup once
// instead of once per response.
type Pending[P any] struct {
	Payload P
	Copies  int
	Base    time.Duration
	Extra   [2]time.Duration
}

// ScheduleAll pushes a staged batch under one lock acquisition and wakes
// the readers once. Sequence numbers are assigned in batch order, exactly
// as the equivalent sequence of Schedule calls would have. It reports
// false — scheduling nothing — once the inbox is closed.
func (in *Inbox[P]) ScheduleAll(batch []Pending[P]) bool {
	if len(batch) == 0 {
		return true
	}
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return false
	}
	for i := range batch {
		p := &batch[i]
		for c := 0; c < p.Copies; c++ {
			in.push(Item[P]{DeliverAt: p.Base + p.Extra[c], Seq: in.seq, Payload: p.Payload})
			in.seq++
		}
	}
	in.mu.Unlock()
	in.wakeAll()
	return true
}

// NextBatch blocks like Next until the earliest scheduled item is
// deliverable, then greedily pops every already-deliverable item (heap
// order, same as consecutive Next calls at one instant) up to len(out).
// It returns the count filled, reporting ok=false once the inbox is
// closed and drained.
func (in *Inbox[P]) NextBatch(out []P) (int, bool) {
	for {
		in.mu.Lock()
		now := in.Elapsed()
		k := 0
		for k < len(out) && len(in.heap) > 0 && in.heap[0].DeliverAt <= now {
			out[k] = in.pop().Payload
			k++
		}
		if k > 0 {
			in.mu.Unlock()
			return k, true
		}
		if in.closed && len(in.heap) == 0 {
			in.mu.Unlock()
			return 0, false
		}
		var deadline time.Time
		if len(in.heap) > 0 {
			deadline = in.epoch.Add(in.heap[0].DeliverAt)
		}
		in.mu.Unlock()
		in.clock.Park(in.parker, deadline)
	}
}

// wakeAll unparks the base reader and every Reader handle. An Unpark on a
// parker nobody is blocked on is retained for its next park, so spurious
// wakeups are the only cost of over-notifying.
func (in *Inbox[P]) wakeAll() {
	in.clock.Unpark(in.parker)
	if rs := in.readers.Load(); rs != nil {
		for _, p := range *rs {
			in.clock.Unpark(p)
		}
	}
}

// Next blocks until the earliest scheduled item is deliverable at the
// current clock time and returns its payload. It reports false once the
// inbox is closed and drained.
func (in *Inbox[P]) Next() (P, bool) {
	for {
		in.mu.Lock()
		now := in.Elapsed()
		if len(in.heap) > 0 && in.heap[0].DeliverAt <= now {
			it := in.pop()
			in.mu.Unlock()
			return it.Payload, true
		}
		if in.closed && len(in.heap) == 0 {
			in.mu.Unlock()
			var zero P
			return zero, false
		}
		var deadline time.Time
		if len(in.heap) > 0 {
			deadline = in.epoch.Add(in.heap[0].DeliverAt)
		}
		in.mu.Unlock()
		in.clock.Park(in.parker, deadline)
	}
}

// Close stops further scheduling; already scheduled items remain
// drainable, after which Next reports false.
func (in *Inbox[P]) Close() {
	in.mu.Lock()
	in.closed = true
	in.mu.Unlock()
	in.wakeAll()
}

// InboxReader is a per-receiver handle onto an Inbox for concurrent
// draining (Conn's Reader wraps one): R receive workers each hold their
// own, so each blocks on its own
// Parker (a Parker must never be shared by two concurrently parked
// actors). Pops are serialized by the inbox mutex; delivery order across
// readers follows the (DeliverAt, Seq) heap order of the pops themselves.
type InboxReader[P any] struct {
	in     *Inbox[P]
	parker *simclock.Parker
}

// NewReader registers and returns a new read handle. Readers are
// registered for the life of the inbox; create them before (or while)
// draining, not per read.
func (in *Inbox[P]) NewReader() *InboxReader[P] {
	r := &InboxReader[P]{in: in, parker: in.clock.NewParker()}
	in.mu.Lock()
	var rs []*simclock.Parker
	if old := in.readers.Load(); old != nil {
		rs = append(rs, *old...)
	}
	rs = append(rs, r.parker)
	in.readers.Store(&rs)
	in.mu.Unlock()
	return r
}

// Next returns the next deliverable payload. eof reports the inbox closed
// and drained (terminal). When an explicit Wake arrives while the reader
// is parked and nothing is deliverable yet, Next returns ok=false,
// eof=false — an interrupted wait, letting the caller service out-of-band
// work (e.g. replies dispatched to it by a sibling worker) before reading
// again.
func (r *InboxReader[P]) Next() (payload P, ok, eof bool) {
	in := r.in
	for {
		in.mu.Lock()
		now := in.Elapsed()
		if len(in.heap) > 0 && in.heap[0].DeliverAt <= now {
			it := in.pop()
			in.mu.Unlock()
			return it.Payload, true, false
		}
		if in.closed && len(in.heap) == 0 {
			in.mu.Unlock()
			var zero P
			return zero, false, true
		}
		var deadline time.Time
		if len(in.heap) > 0 {
			deadline = in.epoch.Add(in.heap[0].DeliverAt)
		}
		in.mu.Unlock()
		if in.clock.Park(r.parker, deadline) {
			var zero P
			return zero, false, false // interrupted by an explicit wake
		}
	}
}

// NextBatch is the batch form of Next: it fills out with every
// already-deliverable payload (up to len(out)) once at least one is
// deliverable. n == 0 with eof false is an interrupted wait (explicit
// Wake); eof reports the inbox closed and drained.
func (r *InboxReader[P]) NextBatch(out []P) (n int, eof bool) {
	in := r.in
	for {
		in.mu.Lock()
		now := in.Elapsed()
		k := 0
		for k < len(out) && len(in.heap) > 0 && in.heap[0].DeliverAt <= now {
			out[k] = in.pop().Payload
			k++
		}
		if k > 0 {
			in.mu.Unlock()
			return k, false
		}
		if in.closed && len(in.heap) == 0 {
			in.mu.Unlock()
			return 0, true
		}
		var deadline time.Time
		if len(in.heap) > 0 {
			deadline = in.epoch.Add(in.heap[0].DeliverAt)
		}
		in.mu.Unlock()
		if in.clock.Park(r.parker, deadline) {
			return 0, false // interrupted by an explicit wake
		}
	}
}

// Wake interrupts this reader's blocked (or next) Next call.
func (r *InboxReader[P]) Wake() {
	r.in.clock.Unpark(r.parker)
}

// Len returns the number of scheduled, not yet read items.
func (in *Inbox[P]) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.heap)
}

func (in *Inbox[P]) less(h []Item[P], i, j int) bool {
	if h[i].DeliverAt != h[j].DeliverAt {
		return h[i].DeliverAt < h[j].DeliverAt
	}
	return h[i].Seq < h[j].Seq
}

// push inserts it, sifting up to its heap position. Caller holds in.mu.
func (in *Inbox[P]) push(it Item[P]) {
	q := append(in.heap, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !in.less(q, i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	in.heap = q
}

// pop removes and returns the earliest-delivery item. Caller holds in.mu.
func (in *Inbox[P]) pop() Item[P] {
	q := in.heap
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= len(q) {
			break
		}
		c := l
		if r := l + 1; r < len(q) && in.less(q, r, l) {
			c = r
		}
		if !in.less(q, c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	in.heap = q
	return top
}

// StageResponse applies inbound impairments (st nil means none) to one
// emitted response, accounting each outcome in stats, and returns the
// surviving Pending for the caller to commit — at once through Schedule,
// or with the rest of a write batch through ScheduleAllResponses; the RNG
// draws are the same either way. ok=false means the response was lost
// (accounted, nothing to commit).
func StageResponse[P any](st *ImpairState, im *Impairments, stats *DeliveryStats, payload P, base time.Duration) (Pending[P], bool) {
	p := Pending[P]{Payload: payload, Copies: 1, Base: base}
	if st != nil {
		var reordered int
		p.Copies, p.Extra, reordered = st.ResponseFate(im)
		if p.Copies == 0 {
			stats.RepliesLost.Add(1)
			return Pending[P]{}, false
		}
		if p.Copies == 2 {
			stats.Duplicates.Add(1)
		}
		if reordered > 0 {
			stats.Reordered.Add(uint64(reordered))
		}
	}
	return p, true
}

// ScheduleAllResponses commits a staged batch: one inbox lock, one reader
// wakeup, and the same Responses accounting the per-response path does.
// It reports false — scheduling nothing — once the inbox is closed.
func ScheduleAllResponses[P any](in *Inbox[P], stats *DeliveryStats, batch []Pending[P]) bool {
	if len(batch) == 0 {
		return true
	}
	if !in.ScheduleAll(batch) {
		return false
	}
	total := 0
	for i := range batch {
		total += batch[i].Copies
	}
	stats.Responses.Add(uint64(total))
	return true
}
