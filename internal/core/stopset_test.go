package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/simclock"
)

// hash16Family is the slice of the IPv6 family the stop set uses: the
// address type and core6's HashAddr. (core6 imports this package, so its
// real family cannot be named here.)
type hash16Family struct{ Family[probe6.Addr] }

func (hash16Family) HashAddr(a probe6.Addr) uint64 {
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(a[i])
		lo = lo<<8 | uint64(a[8+i])
	}
	z := (hi ^ lo) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return z ^ (z >> 31)
}

// checkStopSetAgainstMap drives a stop set and a plain map with the same
// random Add/Has stream, from a hint small enough to force several growth
// steps, and compares every answer, the size and the sorted contents.
func checkStopSetAgainstMap[A comparable](t *testing.T, fam Family[A], shards int, gen func(*rand.Rand) A, less func(a, b A) bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(shards)))
	ss := newStopSet(fam, shards, 8)
	before := ss.memoryBytes()
	model := make(map[A]struct{})
	var zero A
	for i := 0; i < 20000; i++ {
		a := gen(rng)
		if i%97 == 0 {
			a = zero
		}
		_, want := model[a]
		if got := ss.Has(a); got != want {
			t.Fatalf("shards=%d op %d: Has(%v)=%v, model says %v", shards, i, a, got, want)
		}
		if rng.Intn(3) > 0 {
			ss.Add(a)
			model[a] = struct{}{}
			if !ss.Has(a) {
				t.Fatalf("shards=%d op %d: %v missing right after Add", shards, i, a)
			}
		}
	}
	if ss.Size() != len(model) {
		t.Fatalf("shards=%d: Size %d, model holds %d", shards, ss.Size(), len(model))
	}
	if after := ss.memoryBytes(); after < 8*before {
		t.Fatalf("shards=%d: tables grew %d → %d bytes, want ≥ 3 doublings", shards, before, after)
	}
	var got, want []A
	ss.ForEach(func(a A) { got = append(got, a) })
	for a := range model {
		want = append(want, a)
	}
	sort.Slice(got, func(i, j int) bool { return less(got[i], got[j]) })
	sort.Slice(want, func(i, j int) bool { return less(want[i], want[j]) })
	if len(got) != len(want) {
		t.Fatalf("shards=%d: ForEach visited %d members, model holds %d", shards, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("shards=%d: sorted member %d is %v, model has %v", shards, i, got[i], want[i])
		}
	}
}

// TestStopSetMatchesMapModel: the open-addressed stop set answers exactly
// as the map it replaced, for both families' address types, lock-free and
// sharded, zero address and table growth included.
func TestStopSetMatchesMapModel(t *testing.T) {
	for _, shards := range []int{1, 4} {
		// A key space of 6,000 keeps hits and misses both common.
		checkStopSetAgainstMap[uint32](t, ipv4Family{}, shards,
			func(r *rand.Rand) uint32 { return 0x0a000000 + uint32(r.Intn(6000)) },
			func(a, b uint32) bool { return a < b })
		checkStopSetAgainstMap[probe6.Addr](t, hash16Family{}, shards,
			func(r *rand.Rand) probe6.Addr {
				n := r.Intn(6000)
				return probe6.Addr{0: 0x20, 1: 0x01, 14: byte(n >> 8), 15: byte(n)}
			},
			func(a, b probe6.Addr) bool { return string(a[:]) < string(b[:]) })
	}
}

// TestStopSetConcurrent runs the sharded set as Receivers > 1 does — four
// writers mixing Add and Has — while a fifth goroutine iterates and
// sizes it, for the race detector; membership must be complete afterwards.
func TestStopSetConcurrent(t *testing.T) {
	const writers, perWriter = 4, 5000
	ss := newStopSet[uint32](ipv4Family{}, writers, 64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Overlapping ranges: neighbours add the same addresses.
				a := uint32(w*perWriter/2 + i)
				if !ss.Has(a) {
					ss.Add(a)
				}
				if !ss.Has(a) {
					t.Errorf("writer %d: %d missing after Add", w, a)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := 0
			ss.ForEach(func(uint32) { n++ })
			if size := ss.Size(); size < n {
				t.Errorf("Size %d after ForEach visited %d: members vanished", size, n)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if want := (writers + 1) * perWriter / 2; ss.Size() != want {
		t.Fatalf("Size %d, want %d", ss.Size(), want)
	}
}

// TestStopSetShardSlotIndependence: the shard pick and the table's slot
// pick must use different hash bits. With both on the low bits a 2-shard
// set fills only the slots of one parity in each shard — twice the load,
// and probe runs as long as the table. Linear probing's occupied-slot set
// does not depend on insertion order, so re-seating the keys from their
// home slots reproduces each table's layout.
func TestStopSetShardSlotIndependence(t *testing.T) {
	fam := ipv4Family{}
	for _, shards := range []int{2, 4} {
		ss := newStopSet[uint32](fam, shards, 0)
		for a := uint32(0x0a000001); a < 0x0a000001+10000; a++ {
			ss.Add(a)
		}
		for i := range ss.shards {
			tab := &ss.shards[i].t
			slots := int(tab.MemoryBytes() / 4)
			if tab.Len() < 10000/shards/2 {
				t.Fatalf("shards=%d: shard %d holds %d of 10000 keys — shard pick skewed", shards, i, tab.Len())
			}
			occupied := make([]bool, slots)
			var homeParity [2]int
			for a := range tab.All() {
				home := int(fam.HashAddr(a)) & (slots - 1)
				homeParity[home&1]++
				for occupied[home] {
					home = (home + 1) & (slots - 1)
				}
				occupied[home] = true
			}
			if homeParity[0] == 0 || homeParity[1] == 0 {
				t.Fatalf("shards=%d shard %d: home slots by parity %v — shard and slot share hash bits", shards, i, homeParity)
			}
			longest, run := 0, 0
			for pass := 0; pass < 2; pass++ { // twice around: runs wrap
				for _, o := range occupied {
					if run++; !o {
						run = 0
					}
					longest = max(longest, run)
				}
			}
			if longest > 128 {
				t.Fatalf("shards=%d shard %d: longest probe run %d of %d slots (%d keys)", shards, i, longest, slots, tab.Len())
			}
		}
	}
}

// TestStopSetZeroAllocs pins the stop set's hot operations: Has, hit or
// miss, and Add of a present key allocate nothing, at one shard and under
// the shard locks.
func TestStopSetZeroAllocs(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ss := NewLocalStopSet[uint32](ipv4Family{}, shards, 1024)
		for a := uint32(1); a <= 1000; a++ {
			ss.Add(a)
		}
		var hits int
		if n := testing.AllocsPerRun(1000, func() {
			if ss.Has(500) {
				hits++
			}
			if ss.Has(0xdeadbeef) {
				hits--
			}
			ss.Add(500)
		}); n != 0 {
			t.Fatalf("shards=%d: Has hit + Has miss + Add present: %v allocs/op, want 0", shards, n)
		}
		if hits != 1001 { // AllocsPerRun adds one warm-up call
			t.Fatalf("shards=%d: %d hits over 1001 rounds", shards, hits)
		}
	}
}

// bareScanner builds a scanner over a stub universe: enough for the
// constructor's allocations, never run.
func bareScanner(t *testing.T, blocks int, mutate func(*Config)) *Scanner {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Blocks = blocks
	cfg.Targets = func(block int) uint32 { return uint32(block+1) << 8 }
	cfg.BlockOf = func(addr uint32) (int, bool) { return int(addr>>8) - 1, true }
	if mutate != nil {
		mutate(&cfg)
	}
	sc, err := NewScanner(cfg, nil, simclock.NewVirtual(time.Unix(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestControlStateSizePins keeps the per-block cost of what a fresh
// default scanner allocates beside the DCB array where the cardinality
// sizing and the split route record put it.
func TestControlStateSizePins(t *testing.T) {
	const blocks = 262144 // the fr16-inline universe
	fp := bareScanner(t, blocks, nil).Footprint()
	if fp.StopSetBytes == 0 || fp.StopSetBytes > 2*blocks {
		t.Errorf("StopSetBytes %d for %d blocks, want in (0, 2 B/block]", fp.StopSetBytes, blocks)
	}
	if fp.ResultBytes > 14*blocks {
		t.Errorf("ResultBytes %d without CollectRoutes for %d blocks, want ≤ 14 B/block", fp.ResultBytes, blocks)
	}
	if est := EstimateFootprint(blocks); fp.StopSetBytes != est.StopSetBytes {
		t.Errorf("live StopSetBytes %d, EstimateFootprint says %d", fp.StopSetBytes, est.StopSetBytes)
	}
}

// TestNoStopSetWithoutRedundancyElimination: a scan that cannot stop on
// the set keeps none — Exhaustive forces that — and its checkpoints carry
// no stop entries yet resume to the uninterrupted result; a snapshot that
// does carry stop entries (written before the set became optional, or by
// a scan with elimination on) still resumes under NoRedundancyElimination.
func TestNoStopSetWithoutRedundancyElimination(t *testing.T) {
	sc := bareScanner(t, 4096, func(c *Config) {
		c.Exhaustive = true
		c.StopSet = NewLocalStopSet[uint32](ipv4Family{}, 1, 16) // ignored too
	})
	if sc.stopSet != nil {
		t.Fatal("Exhaustive scanner kept a stop set")
	}
	if fp := sc.Footprint(); fp.StopSetBytes != 0 {
		t.Fatalf("Exhaustive scanner reports StopSetBytes %d", fp.StopSetBytes)
	}

	const blocks, seed = 256, 7
	exhaustive := func() *testEnv {
		e := newLockstepEnv(t, blocks, seed)
		e.cfg.Exhaustive = true
		return e
	}
	want := fpOf(exhaustive().runReceivers(t, 1, 1))
	snap, _ := killAndSnapshot(t, exhaustive(), 1, 1, blocks*8)
	if got := fpOf(resumeFrom(t, exhaustive(), 1, 1, snap)); got != want {
		t.Errorf("Exhaustive checkpoint round trip: fingerprint %#x, want %#x", got, want)
	}

	// A preprobe-phase snapshot of a scan with elimination on: no probe
	// has been stopped yet, so it is also a valid prefix of the scan
	// without it, and it holds the preprobe's stop entries.
	withSet := newLockstepEnv(t, blocks, seed)
	withSet.cfg.NoRedundancyElimination = false
	withSet.cfg.PPS = 1000 // replies land before the kill
	snap, part := killAndSnapshot(t, withSet, 1, 1, blocks/2)
	if part.ProbesSent >= blocks {
		t.Fatalf("kill landed after the preprobe phase: %d probes", part.ProbesSent)
	}
	withSet = newLockstepEnv(t, blocks, seed)
	withSet.cfg.NoRedundancyElimination = false
	probe, err := ResumeScanner(withSet.cfg, withSet.net.NewConn(), withSet.clock, snap)
	if err != nil {
		t.Fatal(err)
	}
	if probe.stopSet.Size() == 0 {
		t.Fatal("snapshot carries no stop entries: the case under test is not exercised")
	}
	lockstep := newLockstepEnv(t, blocks, seed) // NoRedundancyElimination on
	lockstep.cfg.PPS = 1000
	want = fpOf(lockstep.runReceivers(t, 1, 1))
	lockstep = newLockstepEnv(t, blocks, seed)
	lockstep.cfg.PPS = 1000
	if got := fpOf(resumeFrom(t, lockstep, 1, 1, snap)); got != want {
		t.Errorf("resume over a snapshot with stop entries: fingerprint %#x, want %#x", got, want)
	}
}
