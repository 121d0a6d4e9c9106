package core

import (
	"time"

	"github.com/flashroute/flashroute/internal/simclock"
)

// pacer throttles one sender to a fixed packet rate. Probes are accounted
// in batches of a ~5 ms quantum (as in the paper's sender loop); when a
// batch completes the pacer sleeps until an absolute next-deadline rather
// than for a fixed interval, so sleep overshoot on the real clock is
// absorbed by the following batch instead of accumulating as rate drift.
//
// Each sender shard owns its own pacer: aggregate throughput honors
// Config.PPS with no shared pacing lock between senders.
type pacer struct {
	clock    simclock.Clock
	batch    int           // probes per pacing quantum; 0 = unthrottled
	interval time.Duration // time budget of one full batch
	count    int           // probes accounted in the current batch
	next     time.Time     // absolute deadline of the current batch; zero = unanchored
}

// newPacer builds a pacer for the given rate; pps <= 0 disables pacing.
func newPacer(clock simclock.Clock, pps int) pacer {
	p := pacer{clock: clock}
	if pps <= 0 {
		return p
	}
	p.batch = pps / 200 // ~5 ms pacing quantum
	if p.batch < 1 {
		p.batch = 1
	}
	p.interval = time.Duration(int64(time.Second) * int64(p.batch) / int64(pps))
	return p
}

// setRate retargets the pacer to a new rate mid-scan: batch size and
// interval are recomputed exactly as newPacer would, the in-batch count
// is cleared and the deadline anchor dropped, so the next batch paces at
// the new rate with no sending debt (or credit) carried across the
// change.
func (p *pacer) setRate(pps int) {
	*p = newPacer(p.clock, pps)
}

// reset drops the deadline anchor (the in-batch probe count is kept).
// Called at phase starts and after non-pacing sleeps — round gaps, drain
// waits — so idle time is not treated as banked sending budget that would
// otherwise be repaid as an unpaced burst.
func (p *pacer) reset() { p.next = time.Time{} }

// pace accounts one sent probe and, when the batch is full, sleeps until
// the batch's absolute deadline. flush (if non-nil) runs after the sleep
// decision but before the sleep itself, so the sender can write out its
// arena before blocking. The deadline is computed before flush runs and
// the sleep targets that absolute instant, so time spent flushing is
// absorbed by the sleep — arena boundaries do not distort pacing.
func (p *pacer) pace(flush func()) {
	if p.batch == 0 {
		return
	}
	p.count++
	if p.count < p.batch {
		return
	}
	p.count = 0
	now := p.clock.Now()
	if p.next.IsZero() {
		p.next = now
	}
	p.next = p.next.Add(p.interval)
	if d := p.next.Sub(now); d > 0 {
		if flush != nil {
			flush()
		}
		p.clock.Sleep(d)
	} else {
		// The sender cannot keep up with the target rate; re-anchor at the
		// present instead of accumulating debt that would burst later.
		p.next = now
	}
}
