// Package trace holds the measurement results of a scan: discovered
// interfaces, per-destination routes, and the analyses the paper performs
// on them (route lengths, loops, on-route destination appearances).
//
// FlashRoute itself is deliberately minimal about results — responses are
// self-describing (paper §3.1), so result collection is a pure consumer of
// the response stream and never feeds back into probing. That separation
// is preserved here: engines emit (destination, TTL, hop, RTT) tuples and
// "destination reached" events; this package stores and analyzes them.
//
// The store is generic over the address representation: the IPv4 engine
// instantiates it at uint32 (the Hop/Route/Store aliases below), the IPv6
// engine at its 16-byte address type. Formatting and ordering — the only
// family-specific operations the store needs — are injected at
// construction.
//
// # Layout
//
// Results are kept compact rather than as a map of pointers. Route
// records live in one flat array; the engine addresses them by block
// slot (it already knows dst → block, so the per-reply map lookup
// disappears — see AddHopAt), while dst-keyed callers (the Yarrp and
// Scamper baselines, cluster merging, checkpoint restore) go through an
// index map. Hops append into a chunked slab shared by all routes and
// chain by index, so recording a reply allocates nothing in steady
// state; the interface set is the open-addressed InterfaceTableOf. Emit
// is streaming: the writers walk a sorted view (k-way merged across
// stripes for StripedStoreOf.Union results) instead of materializing a
// combined copy of the topology.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
	"unsafe"

	"github.com/flashroute/flashroute/internal/probe"
)

// HopOf is one discovered interface on a route.
type HopOf[A comparable] struct {
	TTL  uint8         // hop distance from the vantage point
	Addr A             // interface address that responded
	RTT  time.Duration // round-trip time derived from the probe timestamp
}

// RouteOf is the discovered path to one destination.
type RouteOf[A comparable] struct {
	Dst     A          // the probed destination address
	Hops    []HopOf[A] // sorted by TTL ascending; gaps are unresponsive hops
	Reached bool       // destination answered (host/port/proto unreachable)
	// Length is the hop distance of the destination if Reached, else the
	// largest responding TTL observed.
	Length uint8
}

// IPv4 instantiations, keeping the original names for v4 call sites.
type (
	Hop          = HopOf[uint32]
	Route        = RouteOf[uint32]
	InterfaceSet = InterfaceSetOf[uint32]
	Store        = StoreOf[uint32]
)

// routeRec is the in-store route record: fixed size, no slice header
// (8 bytes for IPv4, 18 for IPv6).
type routeRec[A comparable] struct {
	dst     A
	length  uint8
	reached bool
}

// hopChain links record i's hops through the slab from head; tail makes
// append O(1). Chains exist only when routes are collected, like the slab.
type hopChain struct {
	head int32 // first hop slab index, -1 = none
	tail int32 // last hop slab index, -1 = none
}

// StoreOf accumulates scan results. It is written by a single receiver
// goroutine (the engines' response thread) and read after the scan; it is
// not safe for concurrent mutation.
//
// A store addresses routes one of two ways. Slot mode (NewSlotStoreOf)
// backs the engines: the caller supplies the block slot with each write
// (AddHopAt / SetReachedAt) and the store keeps a flat slot → record
// array — no hashing on the hot path. Map mode (NewStoreOf and friends)
// keeps a dst → record index for callers without a block structure. A
// slot-mode store also accepts dst-keyed calls (checkpoint fallback,
// post-scan reads) through a lazily built index; a destination must not
// be written through both paths.
type StoreOf[A comparable] struct {
	recs   []routeRec[A]
	chains []hopChain  // parallel to recs; nil unless collectRoutes
	slots  []int32     // slot → record index+1; nil in map mode
	index  map[A]int32 // dst → record index+1; nil until needed in slot mode
	hops   hopSlab[A]
	ifaces InterfaceTableOf[A]

	// collectRoutes controls whether per-destination hop lists are kept.
	// Interface counting alone needs far less memory, which matters for
	// full-universe scans.
	collectRoutes bool

	format func(A) string  // address rendering for the writers
	less   func(A, A) bool // address ordering for deterministic output

	// parts is non-nil for the union view returned by
	// StripedStoreOf.Union: reads delegate to the referenced stripes
	// (which stay dst-disjoint by block-affinity dispatch) instead of
	// copying them. A union store must not be written.
	parts []*StoreOf[A]
}

// NewStoreOf returns a map-mode store over the address type A; format and
// less supply the family's address rendering and ordering for the
// writers. If collectRoutes is false, only the interface set and
// per-destination reach/length summaries are kept.
func NewStoreOf[A comparable](collectRoutes bool, format func(A) string, less func(A, A) bool) *StoreOf[A] {
	return NewStoreOfSized(collectRoutes, format, less, 0, 0)
}

// NewStoreOfSized is NewStoreOf with capacity hints for the route records
// and the interface table, so a scan over a known universe does not pay
// incremental growth on the receive path. Hints are advisory; 0 means no
// hint.
func NewStoreOfSized[A comparable](collectRoutes bool, format func(A) string, less func(A, A) bool, routeHint, ifaceHint int) *StoreOf[A] {
	st := &StoreOf[A]{
		index:         make(map[A]int32, routeHint),
		ifaces:        NewInterfaceTableOf[A](memHashOf[A](), ifaceHint),
		collectRoutes: collectRoutes,
		format:        format,
		less:          less,
	}
	st.reserveRoutes(routeHint)
	return st
}

// NewSlotStoreOf returns a slot-mode store with slots block slots: the
// engine's store, written through AddHopAt/SetReachedAt with the block
// slot it already computed for the reply. hash feeds the interface
// table (the family's address hash).
func NewSlotStoreOf[A comparable](collectRoutes bool, format func(A) string, less func(A, A) bool, hash func(A) uint64, slots, ifaceHint int) *StoreOf[A] {
	st := &StoreOf[A]{
		slots:         make([]int32, slots),
		ifaces:        NewInterfaceTableOf[A](hash, ifaceHint),
		collectRoutes: collectRoutes,
		format:        format,
		less:          less,
	}
	st.reserveRoutes(slots)
	return st
}

// NewStore returns an IPv4 map-mode store.
func NewStore(collectRoutes bool) *Store {
	return NewStoreOf[uint32](collectRoutes, probe.FormatAddr,
		func(a, b uint32) bool { return a < b })
}

// newRec appends a fresh record for dst and returns its index.
func (st *StoreOf[A]) newRec(dst A) int32 {
	ri := int32(len(st.recs))
	st.recs = append(st.recs, routeRec[A]{dst: dst})
	if st.collectRoutes {
		st.chains = append(st.chains, hopChain{head: -1, tail: -1})
	}
	return ri
}

// appendHop chains one hop onto record ri. Callers check collectRoutes.
func (st *StoreOf[A]) appendHop(ri int32, ttl uint8, addr A, rtt time.Duration) {
	h := st.hops.append(ttl, addr, rtt)
	c := &st.chains[ri]
	if c.tail >= 0 {
		st.hops.setNext(c.tail, h)
	} else {
		c.head = h
	}
	c.tail = h
}

// recAt returns the record index for (slot, dst), creating it on first
// touch. Slot-mode only. A block's representative address can change
// mid-scan (§5.4 extra-scan target variation), in which case the block's
// later destinations overflow to the dst index so each keeps its own
// route, as the map store did.
func (st *StoreOf[A]) recAt(slot int, dst A) int32 {
	ri := st.slots[slot]
	if ri == 0 {
		ri = st.newRec(dst) + 1
		st.slots[slot] = ri
		if st.index != nil {
			st.index[dst] = ri
		}
		return ri - 1
	}
	if st.recs[ri-1].dst != dst {
		return st.recFor(dst)
	}
	return ri - 1
}

// recFor returns the record index for dst, creating it on first touch.
func (st *StoreOf[A]) recFor(dst A) int32 {
	if st.index == nil {
		st.buildIndex()
	}
	ri := st.index[dst]
	if ri == 0 {
		ri = st.newRec(dst) + 1
		st.index[dst] = ri
	}
	return ri - 1
}

// lookup returns the record index for dst, or -1. Read-only: never
// creates.
func (st *StoreOf[A]) lookup(dst A) int32 {
	if st.index == nil {
		st.buildIndex()
	}
	return st.index[dst] - 1
}

// buildIndex constructs the dst index of a slot-mode store on first
// dst-keyed access — post-scan in practice, so the engine's receive path
// never touches a map.
func (st *StoreOf[A]) buildIndex() {
	st.index = make(map[A]int32, len(st.recs))
	for i := range st.recs {
		st.index[st.recs[i].dst] = int32(i) + 1
	}
}

// addHop records one TTL-exceeded observation on record ri.
func (st *StoreOf[A]) addHop(ri int32, ttl uint8, addr A, rtt time.Duration) bool {
	isNew := st.ifaces.Add(addr)
	r := &st.recs[ri]
	if ttl > r.length && !r.reached {
		r.length = ttl
	}
	if st.collectRoutes {
		st.appendHop(ri, ttl, addr, rtt)
	}
	return isNew
}

// AddHop records a TTL-exceeded response from addr for a probe to dst at
// the given TTL.
func (st *StoreOf[A]) AddHop(dst A, ttl uint8, addr A, rtt time.Duration) {
	st.AddHopReportNew(dst, ttl, addr, rtt)
}

// AddHopReportNew is AddHop, additionally reporting whether addr is a
// never-before-seen interface (Yarrp's neighborhood protection keys off
// this signal).
func (st *StoreOf[A]) AddHopReportNew(dst A, ttl uint8, addr A, rtt time.Duration) bool {
	return st.addHop(st.recFor(dst), ttl, addr, rtt)
}

// AddHopAt is AddHop addressed by block slot instead of a map lookup —
// the engine's receive path, which already mapped the reply to its block.
func (st *StoreOf[A]) AddHopAt(slot int, dst A, ttl uint8, addr A, rtt time.Duration) {
	st.addHop(st.recAt(slot, dst), ttl, addr, rtt)
}

// setReached records a destination answer on record ri.
func (st *StoreOf[A]) setReached(ri int32, ttl uint8, addr A, rtt time.Duration) {
	r := &st.recs[ri]
	wasReached := r.reached
	r.reached = true
	if ttl > 0 {
		r.length = ttl
	}
	// Probes beyond the destination's distance all reach it and answer;
	// record the destination hop once.
	if st.collectRoutes && ttl > 0 && !wasReached {
		st.appendHop(ri, ttl, addr, rtt)
	}
}

// SetReached records that the destination itself answered. ttl is its hop
// distance when known; pass 0 when the response carries no distance (a
// bare TCP RST), which preserves any previously recorded length.
//
// Destination responses do NOT enter the interface set: the paper's
// "interfaces discovered" metric counts router interfaces revealed by
// TTL-exceeded responses (see DESIGN.md — this is the only reading
// consistent with the paper's Table 3 and §5.1 numbers simultaneously).
func (st *StoreOf[A]) SetReached(dst A, ttl uint8, addr A, rtt time.Duration) {
	st.setReached(st.recFor(dst), ttl, addr, rtt)
}

// SetReachedAt is SetReached addressed by block slot (see AddHopAt).
func (st *StoreOf[A]) SetReachedAt(slot int, dst A, ttl uint8, addr A, rtt time.Duration) {
	st.setReached(st.recAt(slot, dst), ttl, addr, rtt)
}

// Interfaces returns the set of unique responding interfaces.
func (st *StoreOf[A]) Interfaces() *InterfaceTableOf[A] { return &st.ifaces }

// AddInterface inserts one address into the interface set without any
// route bookkeeping (checkpoint-resume path).
func (st *StoreOf[A]) AddInterface(a A) { st.ifaces.Add(a) }

// restoreInto resets record ri and installs r's contents; like addHop, it
// keeps the hops only when routes are collected.
func (st *StoreOf[A]) restoreInto(ri int32, r *RouteOf[A]) {
	rec := &st.recs[ri]
	rec.reached = r.Reached
	rec.length = r.Length
	if !st.collectRoutes {
		return
	}
	st.chains[ri] = hopChain{head: -1, tail: -1}
	for _, h := range r.Hops {
		st.appendHop(ri, h.TTL, h.Addr, h.RTT)
	}
}

// RestoreRoute installs a fully-formed route record, replacing any
// existing entry for its destination — the checkpoint-resume path, which
// must NOT replay hops through AddHop (that would re-insert hop addresses
// into the interface set with fresh dedup state). Interface-set contents
// are restored separately via AddInterface.
func (st *StoreOf[A]) RestoreRoute(r *RouteOf[A]) {
	st.restoreInto(st.recFor(r.Dst), r)
}

// RestoreRouteAt is RestoreRoute addressed by block slot (see AddHopAt).
func (st *StoreOf[A]) RestoreRouteAt(slot int, r *RouteOf[A]) {
	st.restoreInto(st.recAt(slot, r.Dst), r)
}

// materializeInto fills out from record ri, reusing out.Hops capacity.
// Hops come out TTL-sorted. The sort runs over the pristine insertion
// order on every call (the slab chain is never reordered), so repeated
// materialization of the same record is identical — unlike the old
// store, which re-sorted a shared slice in place on every Route call
// and could flip equal-TTL hops between calls (see the double-call
// regression test). sort.Slice rather than SliceStable deliberately:
// it reproduces the exact equal-TTL permutation of the pre-slab store,
// keeping emitted bytes identical.
func (st *StoreOf[A]) materializeInto(ri int32, out *RouteOf[A]) {
	rec := &st.recs[ri]
	out.Dst = rec.dst
	out.Reached = rec.reached
	out.Length = rec.length
	out.Hops = out.Hops[:0]
	if !st.collectRoutes {
		return
	}
	for h := st.chains[ri].head; h >= 0; {
		ttl, addr, rtt, next := st.hops.at(h)
		out.Hops = append(out.Hops, HopOf[A]{TTL: ttl, Addr: addr, RTT: rtt})
		h = next
	}
	sort.Slice(out.Hops, func(i, j int) bool { return out.Hops[i].TTL < out.Hops[j].TTL })
}

// Route returns the route to dst with hops sorted by TTL, or nil if no
// response involving dst was recorded. The returned route is a fresh
// copy; mutating it does not affect the store.
func (st *StoreOf[A]) Route(dst A) *RouteOf[A] {
	if st.parts != nil {
		for _, p := range st.parts {
			if r := p.Route(dst); r != nil {
				return r
			}
		}
		return nil
	}
	ri := st.lookup(dst)
	if ri < 0 {
		return nil
	}
	r := &RouteOf[A]{}
	st.materializeInto(ri, r)
	return r
}

// NumRoutes returns the number of destinations with at least one response.
func (st *StoreOf[A]) NumRoutes() int {
	if st.parts != nil {
		n := 0
		for _, p := range st.parts {
			n += p.NumRoutes()
		}
		return n
	}
	return len(st.recs)
}

// ReachedCount returns the number of destinations that answered.
func (st *StoreOf[A]) ReachedCount() int {
	n := 0
	for _, p := range st.parts {
		n += p.ReachedCount()
	}
	for i := range st.recs {
		if st.recs[i].reached {
			n++
		}
	}
	return n
}

// ForEachRoute calls fn for every stored route, each a fresh TTL-sorted
// copy that fn may retain. Iteration order is unspecified.
func (st *StoreOf[A]) ForEachRoute(fn func(*RouteOf[A])) {
	if st.parts != nil {
		for _, p := range st.parts {
			p.ForEachRoute(fn)
		}
		return
	}
	for ri := range st.recs {
		r := &RouteOf[A]{}
		st.materializeInto(int32(ri), r)
		fn(r)
	}
}

// sortedRecIdx returns this store's record indexes in st.less order of
// destination.
func (st *StoreOf[A]) sortedRecIdx() []int32 {
	idx := make([]int32, len(st.recs))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(i, j int) bool {
		return st.less(st.recs[idx[i]].dst, st.recs[idx[j]].dst)
	})
	return idx
}

// ForEachRouteSorted streams every route in ascending destination order —
// a k-way merge across stripes for a union store, with no combined copy
// materialized. The route passed to fn is reused between calls: copy it
// if retained. This is the emit path under WriteJSONL/WriteCSV and the
// checkpoint encoder.
func (st *StoreOf[A]) ForEachRouteSorted(fn func(*RouteOf[A])) {
	var scratch RouteOf[A]
	if st.parts == nil {
		for _, ri := range st.sortedRecIdx() {
			st.materializeInto(ri, &scratch)
			fn(&scratch)
		}
		return
	}
	// K-way merge over per-stripe sorted views. K is the receiver count
	// (single digits): a linear min scan per step beats heap bookkeeping.
	order := make([][]int32, len(st.parts))
	pos := make([]int, len(st.parts))
	for i, p := range st.parts {
		order[i] = p.sortedRecIdx()
	}
	for {
		best := -1
		for i, p := range st.parts {
			if pos[i] >= len(order[i]) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			a := p.recs[order[i][pos[i]]].dst
			b := st.parts[best].recs[order[best][pos[best]]].dst
			if st.less(a, b) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		st.parts[best].materializeInto(order[best][pos[best]], &scratch)
		pos[best]++
		fn(&scratch)
	}
}

// HasLoop reports whether the route visits the same interface at two
// TTLs at least two hops apart — the forwarding-loop signature of §5.1
// (stub networks bouncing packets for nonexistent addresses back to their
// ISP). A repeat at adjacent TTLs is not a loop: it is the signature of a
// route that gained or lost one hop mid-scan (route dynamics).
func (r *RouteOf[A]) HasLoop() bool {
	seen := make(map[A]uint8, len(r.Hops))
	for _, h := range r.Hops {
		if prev, ok := seen[h.Addr]; ok {
			d := int(h.TTL) - int(prev)
			if d < 0 {
				d = -d
			}
			if d >= 2 {
				return true
			}
		}
		seen[h.Addr] = h.TTL
	}
	return false
}

// HopAt returns the interface observed at the given TTL, if any.
func (r *RouteOf[A]) HopAt(ttl uint8) (A, bool) {
	for _, h := range r.Hops {
		if h.TTL == ttl {
			return h.Addr, true
		}
	}
	var zero A
	return zero, false
}

// MemoryBytes returns the store's result-state footprint: route records,
// hop chains, slot array, hop slab, interface table, and the dst index if built. A
// union store reports the sum over its stripes plus its own interface
// table.
func (st *StoreOf[A]) MemoryBytes() uint64 {
	total := st.ifaces.MemoryBytes()
	if st.parts != nil {
		for _, p := range st.parts {
			total += p.MemoryBytes()
		}
		return total
	}
	var rec routeRec[A]
	var addr A
	total += uint64(cap(st.recs)) * uint64(unsafe.Sizeof(rec))
	total += uint64(cap(st.chains)) * uint64(unsafe.Sizeof(hopChain{}))
	total += uint64(len(st.slots)) * 4
	total += st.hops.memoryBytes()
	// map overhead approximation: key + 4-byte int32 value + bucket slack.
	total += uint64(len(st.index)) * (uint64(unsafe.Sizeof(addr)) + 12)
	return total
}

// Reserve pre-allocates capacity for the given totals so subsequent
// AddHop/AddHopAt/SetReached calls within them allocate nothing — the
// allocation-regression pins depend on this.
func (st *StoreOf[A]) Reserve(routes, hops, ifaces int) {
	st.reserveRoutes(routes)
	st.hops.reserve(hops)
	st.ifaces.Reserve(ifaces)
}

// reserveRoutes grows the record array — and the chain array, when routes
// are collected — to hold n routes.
func (st *StoreOf[A]) reserveRoutes(n int) {
	if cap(st.recs) < n {
		st.recs = append(make([]routeRec[A], 0, n), st.recs...)
	}
	if st.collectRoutes && cap(st.chains) < n {
		st.chains = append(make([]hopChain, 0, n), st.chains...)
	}
}

// WriteJSONL writes one JSON object per route:
// {"dst":"a.b.c.d","reached":bool,"length":n,"hops":[{"ttl":n,"addr":"...","rtt_us":n},...]},
// in ascending destination order, streaming — no merged copy of a striped
// store is materialized.
func (st *StoreOf[A]) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	type jsonHop struct {
		TTL   uint8  `json:"ttl"`
		Addr  string `json:"addr"`
		RTTus int64  `json:"rtt_us"`
	}
	type jsonRoute struct {
		Dst     string    `json:"dst"`
		Reached bool      `json:"reached"`
		Length  uint8     `json:"length"`
		Hops    []jsonHop `json:"hops"`
	}
	enc := json.NewEncoder(bw)
	var jr jsonRoute
	var err error
	st.ForEachRouteSorted(func(r *RouteOf[A]) {
		if err != nil {
			return
		}
		jr.Dst = st.format(r.Dst)
		jr.Reached = r.Reached
		jr.Length = r.Length
		jr.Hops = jr.Hops[:0]
		for _, h := range r.Hops {
			jr.Hops = append(jr.Hops, jsonHop{
				TTL: h.TTL, Addr: st.format(h.Addr), RTTus: h.RTT.Microseconds(),
			})
		}
		if jr.Hops == nil {
			jr.Hops = []jsonHop{}
		}
		err = enc.Encode(&jr)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// WriteCSV writes all stored routes as CSV rows:
// destination,ttl,hop,rtt_us,reached — ascending destination order,
// streaming like WriteJSONL.
func (st *StoreOf[A]) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "destination,ttl,hop,rtt_us,reached"); err != nil {
		return err
	}
	var err error
	st.ForEachRouteSorted(func(r *RouteOf[A]) {
		if err != nil {
			return
		}
		for _, h := range r.Hops {
			reached := 0
			if r.Reached && h.TTL == r.Length {
				reached = 1
			}
			if _, werr := fmt.Fprintf(bw, "%s,%d,%s,%d,%d\n",
				st.format(r.Dst), h.TTL, st.format(h.Addr),
				h.RTT.Microseconds(), reached); werr != nil {
				err = werr
				return
			}
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
