// Package core implements FlashRoute itself: the round-based, stateful but
// highly parallel traceroute engine of the paper.
//
// The design mirrors the paper section by section:
//
//   - §3.1 probe encoding — all probing context rides in the packet
//     (implemented in internal/probe and consumed here);
//   - §3.2 probing strategy — rounds over a shuffled destination sequence,
//     up to two probes per destination per round (one backward, one
//     forward), decoupled sender and receiver threads, rounds lasting at
//     least one second;
//   - §3.3 preprobing — one-probe hop-distance measurement at TTL 32 plus
//     proximity-span prediction, used to place each route's split point;
//   - §3.4 control state — a flat array of destination control blocks
//     (DCBs) indexed by block, with a circular doubly linked list overlay
//     in random-permutation order and a per-DCB mutex;
//   - §5.2 discovery-optimized mode — extra backward-only scans with
//     shifted source ports sharing the main scan's stop set.
//
// The engine is generic over the address representation A: packet
// construction and decoding are delegated to a Family implementation,
// while all probing strategy, scheduling, retry, and dedup logic is
// shared. The IPv4 instantiation keeps its historical names (Config,
// Scanner, Result) as aliases; internal/core6 instantiates the same
// engine at the IPv6 address type.
package core

import (
	"time"

	"github.com/flashroute/flashroute/internal/probe"
)

// PacketConn is the raw network access FlashRoute needs: write whole
// probe packets, read whole response packets. internal/netsim (and
// netsim6) provide the simulated implementations; a production deployment
// would back it with a raw socket.
type PacketConn interface {
	WritePacket(pkt []byte) error
	ReadPacket(buf []byte) (int, error)
	Close() error
}

// PacketReader is a per-worker read handle for the receive pipeline:
// each receive worker owns one, so R workers can block on the transport
// concurrently (a lone worker without Config.NewReader reads the
// PacketConn itself). ReadPacket has one
// extension over PacketConn's: it may return (0, nil) when the wait was
// interrupted by Wake before a packet arrived, letting the worker service
// replies dispatched to it by its siblings. Wake must be safe to call
// from any goroutine and must release a concurrently blocked (or the
// next) ReadPacket. netsim's and netsim6's Conn.NewReader provide the
// simulated implementations; a production deployment would back it with
// a per-worker raw socket or a shared ring with per-worker eventfds.
type PacketReader interface {
	ReadPacket(buf []byte) (int, error)
	Wake()
}

// BatchWriter is an optional capability of a PacketConn (the sendmmsg
// shape): WriteBatch writes pkts in order and returns how many were
// consumed. A non-nil error with n < len(pkts) means pkts[n] failed —
// per-packet fault semantics — and the packets after it were not
// attempted; the caller handles pkts[n] (retry or drop) and resubmits the
// rest. n == len(pkts) with a non-nil error is a connection-level failure
// after every packet was consumed. The engine detects the capability by
// interface assertion and uses it whenever a flush holds more than one
// packet; plain PacketConns get one WritePacket per packet.
type BatchWriter interface {
	WriteBatch(pkts [][]byte) (int, error)
}

// BatchReader is an optional capability of a PacketConn or PacketReader
// (the recvmmsg shape): ReadBatch blocks like ReadPacket until at least
// one packet is available, then opportunistically fills additional
// already-available packets without blocking, setting sizes[i] for each
// bufs[i] filled. It returns (0, io.EOF) at end of stream; a PacketReader
// implementation may additionally return (0, nil) for a Wake interrupt —
// and so may polling transports with nothing ready, which callers must
// treat as "try again".
type BatchReader interface {
	ReadBatch(bufs [][]byte, sizes []int) (int, error)
}

// TargetFunc supplies the representative address probed for a block
// (IPv4 form; the generic ConfigOf uses the equivalent raw func type).
type TargetFunc func(block int) uint32

// BlockFunc maps an address back to its block index (ok=false if the
// address is outside the scanned universe).
type BlockFunc func(addr uint32) (int, bool)

// PreprobeMode selects how the preprobing phase picks its targets.
type PreprobeMode int

const (
	// PreprobeOff disables the preprobing phase (§4.1.3 "no preprobing").
	PreprobeOff PreprobeMode = iota
	// PreprobeRandom preprobes the same random representatives as the main
	// scan. With SplitTTL == MaxTTL this folds into the first probing
	// round at zero extra probe cost (§3.3.5).
	PreprobeRandom
	// PreprobeHitlist preprobes separately supplied, more responsive
	// addresses (the hitlist), while the main scan still probes the
	// random representatives to avoid the hitlist's topology bias
	// (§4.1.3, §5.1).
	PreprobeHitlist
)

// ProbeObserver is called for every probe issued (destination, TTL, time
// since scan start). Used by the evaluation harness for Figure 7 and the
// Table 4 overprobing analysis.
type ProbeObserver func(dst uint32, ttl uint8, at time.Duration)

// ConfigOf parameterizes a scan over address type A. Use DefaultConfig
// (IPv4) as the starting point; IPv6 call sites build it through
// internal/core6.
type ConfigOf[A comparable] struct {
	// Blocks is the number of destination blocks in the universe (DCB
	// array size): /24s for IPv4, candidate-list entries for IPv6.
	Blocks int
	// Targets supplies the per-block representative probed in the main
	// scan. A zero-valued address marks the block as having no candidate
	// and is never probed.
	Targets func(block int) A
	// BlockOf maps quoted destination addresses back to block indexes.
	BlockOf func(addr A) (int, bool)
	// Source is the vantage point address stamped into probes.
	Source A

	// SplitTTL is the default split point where backward and forward
	// probing commence for destinations without a measured or predicted
	// distance (§3.2; the paper evaluates 16 and 32).
	SplitTTL uint8
	// GapLimit stops forward probing after this many consecutive silent
	// hops (§3.2; default 5, Figure 6 sweeps it).
	GapLimit uint8
	// MaxTTL bounds probing (32, also the preprobe TTL).
	MaxTTL uint8

	// PPS is the probing rate in packets per second; <= 0 disables
	// throttling (only meaningful on a real clock — on a virtual clock an
	// unthrottled sender never yields and time cannot advance). The rate
	// is an aggregate across all senders.
	PPS int

	// Senders, Receivers and Batch size the one data path; none of them
	// selects a different implementation.
	//
	// Senders is the number of sending goroutines. The permuted
	// destination sequence is sharded into Senders contiguous slices, each
	// owned by one sender with its own packet arena and pacer; the
	// receivers keep racing against all of them through the per-DCB locks
	// (§3.4). <= 0 means 1 — the paper's configuration, which every
	// reproduction experiment pins because probe interleaving (and with
	// it rate-limit and route-dynamics timing) is only deterministic with
	// one sender on the virtual clock.
	Senders int

	// Receivers is the number of workers in the receive pipeline. Every
	// worker pulls raw packets from its own read handle and parses them,
	// then dispatches each decoded reply to the worker owning
	// block % Receivers, so each DCB, stop-set shard and trace-store
	// stripe keeps a single writer. <= 0 means 1 — the paper's single
	// receiving thread (§3.2): it owns every block, so it never
	// dispatches.
	Receivers int

	// NewReader supplies the per-worker read handles of the receive
	// pipeline; required when Receivers > 1 (each call must return a
	// handle safe to use concurrently with its siblings). When nil, the
	// lone worker reads through the PacketConn's own ReadPacket (and
	// ReadBatch).
	NewReader func() PacketReader

	// Batch is the size of the per-shard send arena and the per-worker
	// receive arena, i.e. the most packets moved per transport call:
	// senders accumulate built probes and flush them through
	// BatchWriter.WriteBatch; receivers pull responses through
	// BatchReader.ReadBatch. <= 0 means 1, one packet per call. Each
	// capability is detected independently by interface assertion, so a
	// transport may batch one direction only; a transport with neither
	// is written and read one packet at a time whatever the arena size.
	// Arenas are preallocated, keeping the steady state allocation-free.
	// The arena size never distorts pacing or results: shards flush
	// before every pacer sleep, round gap and phase end, so the set of
	// written probes at every blocking point is the same for every Batch.
	Batch int

	// Preprobe selects the preprobing mode; PreprobeTargets supplies
	// hitlist addresses when PreprobeHitlist is used (ignored otherwise).
	Preprobe        PreprobeMode
	PreprobeTargets func(block int) A
	// ProximitySpan is how many neighboring blocks a measured distance
	// predicts on each side (§3.3.3; default 5). Ignored when Predict is
	// set.
	ProximitySpan int

	// Predict, when non-nil, replaces the built-in proximity-span
	// prediction: it receives the per-block measured distances (0 =
	// unmeasured) and fills predicted distances for unmeasured blocks.
	// IPv6 uses this for same-/48 prediction, where block adjacency —
	// not numeric adjacency — defines proximity.
	Predict func(measured, predicted []uint8)

	// PreprobeRetries re-preprobes blocks still unmeasured after the
	// first preprobe pass and its drain, up to this many extra passes
	// (each followed by its own drain). 0 = single pass, the paper's
	// behavior on a loss-free network; on a lossy network one lost
	// unreachable reply otherwise silently downgrades the block from a
	// measured to a predicted (or default) split point.
	PreprobeRetries int

	// ForwardRetries lets a destination whose forward probing went
	// silent for the whole GapLimit rewind and re-probe the silent gap,
	// up to this many times, instead of giving up — distinguishing lost
	// replies from genuinely silent hops. 0 = no retries (paper
	// behavior: a lost reply burns the GapLimit like a silent hop).
	ForwardRetries int

	// ForwardTimeout is how long a gap-exhausted destination waits for
	// in-flight replies before a forward retry (or final removal) when
	// ForwardRetries > 0. Default 500ms.
	ForwardTimeout time.Duration

	// NoRedundancyElimination disables the Doubletree stop set so
	// backward probing always walks to TTL 1 (Table 1 "off" rows).
	NoRedundancyElimination bool

	// Exhaustive makes the scan probe every TTL from MaxTTL down to 1 for
	// every destination with no early termination, no forward probing and
	// no preprobing — the configuration the paper uses to simulate
	// Yarrp-32 with UDP probes (§4.2.1).
	Exhaustive bool

	// ExtraScans runs the discovery-optimized mode (§5.2): after the main
	// scan, this many additional backward-only scans are run with source
	// port offsets +1, +2, ... and random per-destination starting TTLs,
	// sharing the main scan's stop set.
	ExtraScans int
	// AdaptiveExtraScans implements the §5.4 refinement: instead of
	// picking each extra scan's starting TTL uniformly from 1..MaxTTL,
	// pick it from 1..(observed route length + 5), saving the backward
	// probes that would explore past the route's end on alternate paths
	// of similar length.
	AdaptiveExtraScans bool
	// ExtraScanTargets, when non-nil, implements §5.4's other mitigation
	// for the one-address-per-/24 limitation: each discovery-optimized
	// extra scan probes a different destination address within the block
	// (scan = 1..ExtraScans), exposing address-dependent internal paths.
	ExtraScanTargets func(block, scan int) A

	// Skip excludes blocks from the scan (the exclusion list and
	// reserved/private space of §3.4); nil scans everything. The cluster
	// coordinator also uses it to carve the permuted destination universe
	// into per-worker shards.
	Skip func(block int) bool

	// StopSet substitutes the engine's Doubletree stop set; nil uses the
	// default in-process sharded implementation (fingerprint-identical to
	// the engine before this knob existed). The cluster layer injects its
	// globally shared, suppress-only set here.
	StopSet StopSet[A]

	// TraceSink, when non-nil, observes every discovery event (hop
	// appends and destination arrivals) as the engine records it into its
	// trace store — a tee, never a replacement; results and checkpoints
	// are unaffected.
	TraceSink TraceSink[A]

	// CollectRoutes keeps full per-destination hop lists in the result
	// (needed by route-level analyses; costs memory on huge universes).
	CollectRoutes bool

	// Observer, if non-nil, sees every probe issuance.
	Observer func(dst A, ttl uint8, at time.Duration)

	// Seed drives the destination permutation and the random choices of
	// discovery-optimized mode.
	Seed int64

	// DrainWait is how long to keep receiving after the last probe of a
	// phase (covers in-flight RTTs). Default 2s.
	DrainWait time.Duration

	// MinRoundTime is the minimum duration of a probing round (§3.2: "the
	// sending thread ensures that each round lasts at least one second").
	// Default 1s; the maximum-rate measurement (Table 5) sets it to a
	// negligible value because at measurement scale rounds are far longer
	// than a second anyway.
	MinRoundTime time.Duration

	// CheckpointSink, when non-nil, arms crash-safe checkpointing: the
	// engine periodically serializes its complete probing state (see
	// checkpoint.go) and hands the snapshot bytes to the sink. The sink
	// is called from a sender goroutine — it should be fast (write to a
	// temp file and rename) and must not retain the slice. Sink errors
	// are counted in Result.CheckpointErrors, never fatal. A final
	// snapshot is always written when the scan finishes or is cancelled.
	CheckpointSink func(snapshot []byte) error

	// CheckpointEvery triggers a checkpoint every N probes sent (scan
	// total, all senders). 0 disables the probe-count trigger.
	CheckpointEvery int

	// CheckpointInterval triggers a checkpoint when this much scan time
	// has passed since the last one. 0 disables the time trigger. With
	// both triggers zero and a sink set, only the final snapshot is
	// written.
	CheckpointInterval time.Duration

	// SendRetries bounds the retransmissions of a probe whose
	// WritePacket failed with a transient (Temporary() == true) error,
	// with exponential backoff between attempts. 0 means the default of
	// 3; negative disables retries. Exhausted retries and permanent
	// errors are counted in Result.SendErrors and the probe is dropped —
	// the scan continues (a traceroute probe is one datapoint, not a
	// transaction).
	SendRetries int

	// CancelGrace is how long a cancelled scan keeps receiving after the
	// senders stop, so in-flight replies still land in the partial
	// result. Default DrainWait.
	CancelGrace time.Duration

	// AbortOnSendErrors aborts the scan once this many probes have been
	// dropped for failed writes in the current run (SendRetries
	// exhausted or a permanent error each time). A dead transport then
	// surfaces as ErrTransportDead from RunContext — with the partial
	// result and a final checkpoint, so a supervisor can migrate the
	// work — instead of the scan "completing" with nothing but send
	// errors. 0 (the default) disables the abort: dropped probes stay
	// individual lost datapoints, exactly the prior behavior.
	AbortOnSendErrors int
}

// Config is the IPv4 scan configuration.
type Config = ConfigOf[uint32]

// DefaultConfig returns the paper's recommended IPv4 configuration
// (FlashRoute-16: split TTL 16, gap limit 5, redundancy elimination on,
// preprobing on, proximity span 5, 100 Kpps).
func DefaultConfig() Config {
	return Config{
		SplitTTL:      16,
		GapLimit:      5,
		MaxTTL:        probe.MaxTTL,
		PPS:           100_000,
		Preprobe:      PreprobeRandom,
		ProximitySpan: 5,
		DrainWait:     2 * time.Second,
		MinRoundTime:  time.Second,
	}
}

// foldsPreprobe reports whether preprobing can replace the first round of
// the main scan (§3.3.5): the preprobe targets are the main targets and
// both phases start at MaxTTL.
func (c *ConfigOf[A]) foldsPreprobe() bool {
	return c.Preprobe == PreprobeRandom && c.SplitTTL == c.MaxTTL
}
