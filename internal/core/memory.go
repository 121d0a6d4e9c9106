package core

import (
	"sync"
	"unsafe"

	"github.com/flashroute/flashroute/internal/trace"
)

// lockBytes is the per-DCB lock cost: one sync.Mutex.
const lockBytes = uint64(unsafe.Sizeof(sync.Mutex{}))

// Footprint describes the memory cost of a scan configuration — the
// accounting behind the paper's §3.4 claim that the full-/24 control
// structure occupies around 900 MB, and behind its §5.4 projections for
// finer granularities (< 15 GB at one target per /28, ~230 GB at /32) —
// extended with the result-store side, which the paper leaves implicit
// but which dominates once routes are collected.
type Footprint struct {
	Blocks int
	// DCBBytes is the destination control block array (Listing 1 fields
	// plus the linked-list overlay).
	DCBBytes uint64
	// LockBytes is the per-DCB mutex array (§3.4).
	LockBytes uint64
	// SideBytes covers the split-TTL, measured/predicted-distance and
	// permutation-order arrays.
	SideBytes uint64
	// StopSetBytes is the engine's own stop set: the shards' open-addressed
	// tables. Zero for a scan that keeps none (NoRedundancyElimination)
	// or uses an injected one, which accounts for itself.
	StopSetBytes uint64
	// ResultBytes is the slab-backed result store: route records and the
	// block-slot array, hop chains and the hop slab (when routes are
	// collected), and the open-addressed interface table. For a live scanner this is the
	// store's actual allocation; for EstimateFootprint it assumes every
	// block responds with hops out to the expected route length.
	ResultBytes uint64
}

// Total returns the summed footprint in bytes.
func (f Footprint) Total() uint64 {
	return f.DCBBytes + f.LockBytes + f.SideBytes + f.StopSetBytes + f.ResultBytes
}

// Result-store sizing model for EstimateFootprint, mirroring the slab
// layout in internal/trace: a fixed-size route record, its hop chain and
// the 4-byte slot entry per block, estHopsPerRoute slab hops per
// responding route (paper Table 3 puts the mean route length near 16;
// slab hops cost addr+rtt+link+ttl), and the interface table at the
// engine's own pre-sizing (entriesHint).
const (
	estHopsPerRoute = 16
	estRecBytes     = 8 + 8 // dst(4) + length/reached + pad; head/tail when routes are collected
	estHopBytes     = 17    // addr(4) + rtt(8) + next(4) + ttl(1), v4 slab
)

// entriesHint is the engine's pre-sizing for its two address sets, the
// stop set and the interface table: one entry per eight blocks. A finished
// scan holds 0.09–0.12 entries per block in either on every FlashRoute-16
// benchmark workload and 0.26 on dense-exhaustive, whose interface table
// then doubles once; the tables grow on demand, so an underestimate costs
// a rehash, not correctness.
func entriesHint(blocks int) int { return blocks / 8 }

// EstimateFootprint computes the IPv4 footprint for a universe of the
// given size without allocating it. Routes are assumed collected
// (collectRoutes true); subtract the hop-slab term for
// interface-counting-only scans.
func EstimateFootprint(blocks int) Footprint {
	var d dcb
	b := uint64(blocks)
	tableBytes := uint64(trace.TableSizeFor(entriesHint(blocks))) * 4
	return Footprint{
		Blocks:    blocks,
		DCBBytes:  b * uint64(unsafe.Sizeof(d)),
		LockBytes: b * lockBytes,
		// splits + measured + predicted (1 B each) + order (4 B).
		SideBytes:    b * (3 + 4),
		StopSetBytes: tableBytes,
		ResultBytes:  b*(estRecBytes+4) + b*estHopsPerRoute*estHopBytes + tableBytes,
	}
}

// Footprint reports the scanner's own accounting, sized for the
// instantiated address family's DCB layout. ResultBytes is the result
// store's live allocation (slab chunks, record array, slot array,
// interface table) at the time of the call, StopSetBytes likewise.
func (s *ScannerOf[A]) Footprint() Footprint {
	var d dcbOf[A]
	var result, stop uint64
	for _, rw := range s.recvWorkers {
		result += rw.store.MemoryBytes()
	}
	if ss, ok := s.stopSet.(*stopSetOf[A]); ok {
		stop = ss.memoryBytes()
	}
	return Footprint{
		Blocks:       s.cfg.Blocks,
		DCBBytes:     uint64(s.cfg.Blocks) * uint64(unsafe.Sizeof(d)),
		LockBytes:    uint64(s.cfg.Blocks) * lockBytes,
		SideBytes:    uint64(s.cfg.Blocks) * (3 + 4),
		StopSetBytes: stop,
		ResultBytes:  result,
	}
}
