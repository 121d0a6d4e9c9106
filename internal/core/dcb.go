package core

// dcbOf is the destination control block of paper §3.4 (Listing 1): the
// per-destination probing state plus the doubly-linked-list overlay,
// generic over the destination address type.
//
// The sending thread reads nextBackward/nextForward/forwardHorizon each
// round and advances them as it issues probes; the receiving thread
// updates forwardHorizon on responses and zeroes nextBackward when the
// backward scan completes (TTL-1 hop or convergence with the stop set).
// Each DCB is guarded by its own mutex (the parallel array
// ScannerOf.locks), exactly as the paper argues: contention only occurs
// when a response for a destination arrives while the sender happens to
// be handling the same destination.
type dcbOf[A comparable] struct {
	dest A

	// respSeen has bit (TTL-1) set once a TTL-exceeded response for that
	// initial TTL has been processed this pass — the duplicate-reply
	// guard: a duplicated ICMP reply must neither double-count an
	// interface in the route nor re-run the probing-strategy update
	// (which would otherwise see its own hop in the stop set and
	// terminate backward probing early). Guarded by the per-DCB lock.
	respSeen uint32

	// Doubly linked list overlay (indexes into the DCB array).
	next, prev uint32

	// lastForward is the scan-relative issue time of this destination's
	// most recent forward probe in 16 ms ticks, read by the forward-retry
	// timeout (unsigned wrap-safe comparison; a wrap past ~17 min can at
	// worst defer a retry by one round). Only maintained when
	// Config.ForwardRetries > 0.
	lastForward uint16

	// Probing progress (paper Listing 1).
	nextBackward   uint8 // TTL of the next backward probe; 0 = backward done
	nextForward    uint8 // TTL of the next forward probe
	forwardHorizon uint8 // forward stops once nextForward > forwardHorizon
	flags          uint8
	// routeLen tracks the farthest response (or the destination's
	// distance once reached) — the input to the §5.4 adaptive heuristic
	// for discovery-optimized extra scans.
	routeLen uint8
	// fwRetries counts forward-gap rewinds performed for this
	// destination (bounded by Config.ForwardRetries).
	fwRetries uint8
}

// dcb is the IPv4 DCB (used by the footprint accounting).
type dcb = dcbOf[uint32]

// dcb flag bits.
const (
	dcbForwardDone = 1 << iota // destination answered (unreachable received)
	dcbRemoved                 // finished probing; set under the DCB lock, then unlinked
	dcbSplitHigh               // low bits of the split TTL continue in splitLow
	dcbPreSeen                 // a TTL-exceeded preprobe response was processed
	// dcbBwStopped marks backward probing terminated by the Doubletree
	// stop set rather than by reaching TTL 1. Checkpoint resume keys off
	// it: a stop-set termination must not be rewound (the hop that
	// triggered it is in the restored stop set, but the respSeen bitmap
	// alone cannot distinguish "stopped early" from "probes still in
	// flight").
	dcbBwStopped
)

// listOf is the circular doubly linked list threaded through the DCB
// array in random-permutation order (paper Figure 5). Only the sending
// thread traverses and modifies links, so no locking is needed on
// next/prev.
type listOf[A comparable] struct {
	dcbs []dcbOf[A]
	head uint32 // any live element; noHead when empty
	size int
}

const noHead = ^uint32(0)

// buildList threads the DCBs at the given permuted order into a circular
// list. order lists DCB indexes; already-removed DCBs are skipped.
func buildList[A comparable](dcbs []dcbOf[A], order []uint32) *listOf[A] {
	l := &listOf[A]{dcbs: dcbs, head: noHead}
	var prev uint32 = noHead
	var first uint32 = noHead
	for _, idx := range order {
		if dcbs[idx].flags&dcbRemoved != 0 {
			continue
		}
		if first == noHead {
			first = idx
		} else {
			dcbs[prev].next = idx
			dcbs[idx].prev = prev
		}
		prev = idx
		l.size++
	}
	if first == noHead {
		return l
	}
	dcbs[prev].next = first
	dcbs[first].prev = prev
	l.head = first
	return l
}

// remove unlinks idx from the list. Caller guarantees idx is linked and
// has marked it dcbRemoved under the DCB lock: flags is shared with the
// receiver, the links are not.
func (l *listOf[A]) remove(idx uint32) {
	d := &l.dcbs[idx]
	l.size--
	if l.size == 0 {
		l.head = noHead
		return
	}
	n, p := d.next, d.prev
	l.dcbs[p].next = n
	l.dcbs[n].prev = p
	if l.head == idx {
		l.head = n
	}
}
