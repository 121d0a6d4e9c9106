package core

import (
	"sync"
	"unsafe"
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
	// ResultBytes is the slab-backed result store: route records and the
	// block-slot array, the hop slab (when routes are collected), and the
	// open-addressed interface table. For a live scanner this is the
	// store's actual allocation; for EstimateFootprint it assumes every
	// block responds with hops out to the expected route length.
	ResultBytes uint64
}

// Total returns the summed footprint in bytes.
func (f Footprint) Total() uint64 {
	return f.DCBBytes + f.LockBytes + f.SideBytes + f.ResultBytes
}

// Result-store sizing model for EstimateFootprint, mirroring the slab
// layout in internal/trace: a fixed-size route record plus the 4-byte
// slot entry per block, estHopsPerRoute slab hops per responding route
// (paper Table 3 puts the mean route length near 16; slab hops cost
// addr+rtt+link+ttl), and an interface-table slot for every two blocks
// (the empirical interface-per-block ratio the engine also uses for its
// pre-sizing) at a 4/3 open-addressing load factor.
const (
	estHopsPerRoute = 16
	estRecBytes     = 20 // dst(4) + head/tail/nhops(12) + length/reached + pad
	estHopBytes     = 17 // addr(4) + rtt(8) + next(4) + ttl(1), v4 slab
)

// EstimateFootprint computes the IPv4 footprint for a universe of the
// given size without allocating it. Routes are assumed collected
// (collectRoutes true); subtract the hop-slab term for
// interface-counting-only scans.
func EstimateFootprint(blocks int) Footprint {
	var d dcb
	b := uint64(blocks)
	ifaceSlots := uint64(tableSizeForEstimate(blocks / 2))
	return Footprint{
		Blocks:    blocks,
		DCBBytes:  b * uint64(unsafe.Sizeof(d)),
		LockBytes: b * lockBytes,
		// splits + measured + predicted (1 B each) + order (4 B).
		SideBytes:   b * (3 + 4),
		ResultBytes: b*(estRecBytes+4) + b*estHopsPerRoute*estHopBytes + ifaceSlots*4,
	}
}

// tableSizeForEstimate mirrors the interface table's power-of-two growth
// under its 3/4 load-factor bound.
func tableSizeForEstimate(n int) int {
	size := 16
	for size*3 < n*4 {
		size <<= 1
	}
	return size
}

// Footprint reports the scanner's own accounting, sized for the
// instantiated address family's DCB layout. ResultBytes is the result
// store's live allocation (slab chunks, record array, slot array,
// interface table) at the time of the call.
func (s *ScannerOf[A]) Footprint() Footprint {
	var d dcbOf[A]
	var result uint64
	for _, rw := range s.recvWorkers {
		result += rw.store.MemoryBytes()
	}
	return Footprint{
		Blocks:      s.cfg.Blocks,
		DCBBytes:    uint64(s.cfg.Blocks) * uint64(unsafe.Sizeof(d)),
		LockBytes:   uint64(s.cfg.Blocks) * lockBytes,
		SideBytes:   uint64(s.cfg.Blocks) * (3 + 4),
		ResultBytes: result,
	}
}
