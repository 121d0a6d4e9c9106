package trace

import (
	"bytes"
	"testing"
	"time"
	"unsafe"
)

// TestRouteDoubleCallStable pins the fix for the in-place-sort bug: the
// map store sorted the route's own hop slice on every Route call, so a
// second call sorted an already-sorted slice and could return a
// different equal-TTL permutation than the first (and corrupted the
// store's insertion order as a side effect). The slab store materializes
// from the pristine insertion-order chain on every call, so repeated
// calls must agree byte for byte — including on routes long enough
// (n ≥ ~12) for the unstable sort to actually permute equal elements.
func TestRouteDoubleCallStable(t *testing.T) {
	st := NewStore(true)
	const dst = 50
	// A long route with equal-TTL pairs (the destination-distance
	// ambiguity: a TTL-exceeded and an unreachable at the same hop).
	for ttl := uint8(1); ttl <= 14; ttl++ {
		st.AddHop(dst, ttl, uint32(0x0a000000)+uint32(ttl), time.Millisecond)
	}
	st.AddHop(dst, 14, 0x0b000001, 2*time.Millisecond)
	st.AddHop(dst, 7, 0x0b000002, 2*time.Millisecond)

	r1 := st.Route(dst)
	r2 := st.Route(dst)
	if len(r1.Hops) != len(r2.Hops) {
		t.Fatalf("hop counts diverge: %d vs %d", len(r1.Hops), len(r2.Hops))
	}
	for i := range r1.Hops {
		if r1.Hops[i] != r2.Hops[i] {
			t.Fatalf("hop %d diverges across calls: %+v vs %+v", i, r1.Hops[i], r2.Hops[i])
		}
	}

	// The writers must be repeat-stable too.
	var a, b bytes.Buffer
	if err := st.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteJSONL output differs across calls")
	}
}

func hashU32(a uint32) uint64 {
	z := uint64(a) * 0x9e3779b97f4a7c15
	z ^= z >> 32
	return z
}

// TestRouteRecSize pins the split record: the per-block cost of a scan
// that collects no routes is the 8-byte (IPv4) or 18-byte (IPv6) record;
// the chain links are paid only with the hop slab.
func TestRouteRecSize(t *testing.T) {
	if n := unsafe.Sizeof(routeRec[uint32]{}); n != 8 {
		t.Errorf("IPv4 routeRec is %d bytes, want 8", n)
	}
	if n := unsafe.Sizeof(routeRec[[16]byte]{}); n != 18 {
		t.Errorf("IPv6 routeRec is %d bytes, want 18", n)
	}
	if n := unsafe.Sizeof(hopChain{}); n != 8 {
		t.Errorf("hopChain is %d bytes, want 8", n)
	}
	st := NewSlotStoreOf[uint32](false, nil, nil, hashU32, 1024, 0)
	st.AddHopAt(3, 100, 5, 0xA, time.Millisecond)
	if st.chains != nil || st.hops.n != 0 {
		t.Errorf("store without routes keeps %d chains and %d hops", len(st.chains), st.hops.n)
	}
	if got := st.MemoryBytes(); got != 1024*(8+4)+16*4 {
		t.Errorf("MemoryBytes %d, want records + slots + a 16-slot interface table", got)
	}
}

// TestHotPathZeroAllocs pins the tentpole's allocation contract: within
// reserved capacity, the engine-facing write path — AddHopAt,
// SetReachedAt, and interface-table hits — allocates nothing, with and
// without route collection. A regression here puts the allocator back on
// the receive path at Table 5 rates.
func TestHotPathZeroAllocs(t *testing.T) {
	hotPathZeroAllocs(t, true)
	hotPathZeroAllocs(t, false)
}

func hotPathZeroAllocs(t *testing.T, collectRoutes bool) {
	const slots = 1024
	st := NewSlotStoreOf[uint32](collectRoutes, func(uint32) string { return "" },
		func(a, b uint32) bool { return a < b }, hashU32, slots, 0)
	st.Reserve(slots, 1<<16, 1<<16)

	var i uint32
	allocs := testing.AllocsPerRun(5000, func() {
		slot := int(i) % slots
		st.AddHopAt(slot, uint32(slot)+1, uint8(i%30)+1, 0x0a000000+i, time.Microsecond)
		i++
	})
	if allocs != 0 {
		t.Fatalf("collect=%v AddHopAt: %v allocs/op, want 0", collectRoutes, allocs)
	}

	allocs = testing.AllocsPerRun(1000, func() {
		slot := int(i) % slots
		st.SetReachedAt(slot, uint32(slot)+1, 31, 0xdead0000+i, time.Microsecond)
		i++
	})
	if allocs != 0 {
		t.Fatalf("collect=%v SetReachedAt: %v allocs/op, want 0", collectRoutes, allocs)
	}

	ifaces := st.Interfaces()
	allocs = testing.AllocsPerRun(1000, func() {
		ifaces.Add(0x0a000001) // already present: a pure probe hit
	})
	if allocs != 0 {
		t.Fatalf("collect=%v interface-set hit: %v allocs/op, want 0", collectRoutes, allocs)
	}
}

// TestSlotStoreExtraTargetOverflow covers the §5.4 hazard the slot store
// must handle: extra-scan target variation changes a block's
// representative mid-scan, so one slot sees two destinations. Each must
// keep its own route, as the map store guaranteed.
func TestSlotStoreExtraTargetOverflow(t *testing.T) {
	st := NewSlotStoreOf[uint32](true, func(uint32) string { return "" },
		func(a, b uint32) bool { return a < b }, hashU32, 4, 0)
	st.AddHopAt(2, 100, 3, 0xA, time.Millisecond)
	st.AddHopAt(2, 200, 5, 0xB, time.Millisecond) // same slot, new target
	st.SetReachedAt(2, 200, 6, 200, time.Millisecond)

	if n := st.NumRoutes(); n != 2 {
		t.Fatalf("routes=%d want 2 (per-destination, not per-slot)", n)
	}
	r100, r200 := st.Route(100), st.Route(200)
	if r100 == nil || len(r100.Hops) != 1 || r100.Reached {
		t.Fatalf("route 100 merged with the block's later target: %+v", r100)
	}
	if r200 == nil || len(r200.Hops) != 2 || !r200.Reached || r200.Length != 6 {
		t.Fatalf("route 200 wrong: %+v", r200)
	}
}

// BenchmarkTraceStore measures the engine-facing write path and reports
// bytes/route — the tentpole's memory metric (the frbench suite includes
// this benchmark; BENCH_*.json records it).
func BenchmarkTraceStore(b *testing.B) {
	const slots = 4096
	const hopsPerRoute = 16
	b.Run("AddHopAt", func(b *testing.B) {
		st := NewSlotStoreOf[uint32](true, func(uint32) string { return "" },
			func(a, b uint32) bool { return a < b }, hashU32, slots, slots/2)
		st.Reserve(slots, b.N+slots, b.N+slots)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot := i % slots
			st.AddHopAt(slot, uint32(slot)+1, uint8(i%hopsPerRoute)+1,
				uint32(0x0a000000+i), time.Microsecond)
		}
	})
	b.Run("SetReachedAt", func(b *testing.B) {
		st := NewSlotStoreOf[uint32](true, func(uint32) string { return "" },
			func(a, b uint32) bool { return a < b }, hashU32, slots, slots/2)
		st.Reserve(slots, b.N+slots, slots)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot := i % slots
			st.SetReachedAt(slot, uint32(slot)+1, uint8(i%hopsPerRoute)+1,
				uint32(0xc0000000+i), time.Microsecond)
		}
	})
	b.Run("FillAndEmit", func(b *testing.B) {
		// One full store lifecycle per iteration: fill every slot with a
		// mean-length route, then stream it out sorted.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := NewSlotStoreOf[uint32](true, func(uint32) string { return "" },
				func(a, b uint32) bool { return a < b }, hashU32, slots, slots/2)
			st.Reserve(slots, slots*hopsPerRoute, slots*hopsPerRoute)
			for s := 0; s < slots; s++ {
				dst := uint32(s)*256 + 1
				for ttl := uint8(1); ttl <= hopsPerRoute; ttl++ {
					st.AddHopAt(s, dst, ttl, uint32(s*64+int(ttl)), time.Microsecond)
				}
			}
			routes := 0
			st.ForEachRouteSorted(func(*RouteOf[uint32]) { routes++ })
			if routes != slots {
				b.Fatalf("routes=%d", routes)
			}
			if i == 0 {
				b.ReportMetric(float64(st.MemoryBytes())/float64(slots), "bytes/route")
			}
		}
	})
}
