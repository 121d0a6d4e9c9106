package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one rep or one
// HTTP job share Trace; Parent is the ID of the span that caused this one
// (0 for a root). Times are nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps every span in memory until the benchmark ends; nothing is
// written while a workload is being measured.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (r *recorder) begin(name string, parent int, trace string) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Trace: trace, Start: now, End: now})
	return id
}

// restart moves an open span's start to now: a span whose ID had to exist
// before the work it times could begin.
func (r *recorder) restart(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].Start = now
	r.mu.Unlock()
}

func (r *recorder) end(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an interval that has already ended.
func (r *recorder) add(name string, parent int, trace string, start time.Time, d time.Duration) {
	s := int64(start.Sub(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, ID: len(r.spans) + 1, Parent: parent, Trace: trace, Start: s, End: s + int64(d)})
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover. Children may overlap one
// another (two HTTP clients, two senders), so the covered part is the
// union of the child intervals clipped to the parent, not their sum.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeSpanFile writes what -spans asks for: the spans plus, per rep, the
// counters of the per-packet boundaries that are too frequent to keep as
// spans. One span or boundary per line keeps the file greppable and a third
// the size of an indented one.
func writeSpanFile(path string, rec *recorder, bs []boundaryStats) error {
	var buf bytes.Buffer
	list := func(key string, n int, item func(i int) any) error {
		fmt.Fprintf(&buf, "%q: [", key)
		for i := 0; i < n; i++ {
			data, err := json.Marshal(item(i))
			if err != nil {
				return err
			}
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
			buf.Write(data)
		}
		buf.WriteString("\n]")
		return nil
	}
	spans := rec.snapshot()
	fmt.Fprintf(&buf, "{%q: %q,\n", "note", "times are ns since the benchmark started; a boundary keeps calls, "+
		"items, busy ns and a log2(ns) histogram of every call, and one call in 1024 as a span")
	if err := list("spans", len(spans), func(i int) any { return spans[i] }); err != nil {
		return err
	}
	buf.WriteString(",\n")
	if err := list("boundaries", len(bs), func(i int) any { return bs[i] }); err != nil {
		return err
	}
	buf.WriteString("}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// boundary counts the calls across one per-packet layer boundary. A scan
// makes millions of them, so each call adds to a count, a busy time and a
// log2 histogram, and one call in sampleEvery is also kept as a span.
type boundary struct {
	name   string
	rec    *recorder
	parent int
	trace  string

	calls  atomic.Int64
	items  atomic.Int64 // packets, lookups: what a call moved
	busyNs atomic.Int64
	hist   [40]atomic.Int64 // hist[i] counts calls of [2^(i-1), 2^i) ns
}

const sampleEvery = 1024

// observe accounts one call that started at t0 and moved items units.
func (b *boundary) observe(t0 time.Time, items int) time.Duration {
	d := time.Since(t0)
	n := b.calls.Add(1)
	b.items.Add(int64(items))
	b.busyNs.Add(int64(d))
	b.hist[min(bits.Len64(uint64(d)), len(b.hist)-1)].Add(1)
	if n%sampleEvery == 0 {
		b.rec.add(b.name, b.parent, b.trace, t0, d)
	}
	return d
}

// busy is the time spent inside the boundary with the clock's own share of
// every timed interval taken out.
func (b *boundary) busy() time.Duration {
	d := time.Duration(b.busyNs.Load()) - time.Duration(b.calls.Load())*clockCost()
	return max(d, 0)
}

// perItem is busy time per unit moved, in ns.
func (b *boundary) perItem() float64 {
	if n := b.items.Load(); n > 0 {
		return float64(b.busy()) / float64(n)
	}
	return 0
}

type boundaryStats struct {
	Name   string  `json:"name"`
	Trace  string  `json:"trace"`
	Calls  int64   `json:"calls"`
	Items  int64   `json:"items"`
	BusyNs int64   `json:"busy_ns"`
	Hist   []int64 `json:"log2_ns_hist"`
}

func (b *boundary) stats() boundaryStats {
	s := boundaryStats{Name: b.name, Trace: b.trace, Calls: b.calls.Load(), Items: b.items.Load(), BusyNs: int64(b.busy())}
	for i := range b.hist {
		s.Hist = append(s.Hist, b.hist[i].Load())
	}
	for len(s.Hist) > 0 && s.Hist[len(s.Hist)-1] == 0 {
		s.Hist = s.Hist[:len(s.Hist)-1]
	}
	return s
}

var (
	clockCostOnce sync.Once
	clockCostNs   time.Duration
)

// clockCost is how long an empty timed interval reads on this machine: the
// part of reading the clock that falls inside every interval a boundary
// times. Measured once; boundaries subtract it from every call.
func clockCost() time.Duration {
	clockCostOnce.Do(func() {
		const n = 200_000
		var sum time.Duration
		for i := 0; i < n; i++ {
			sum += time.Since(time.Now())
		}
		clockCostNs = sum / n
	})
	return clockCostNs
}
