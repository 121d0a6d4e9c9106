// Package flashroute is a Go implementation of FlashRoute (Huang,
// Rabinovich, Al-Dalky — "FlashRoute: Efficient Traceroute on a Massive
// Scale", IMC 2020): a traceroute engine for Internet-wide topology
// discovery that combines Yarrp-style decoupled, highly parallel probing
// with Doubletree-style redundancy elimination, preprobing-based split
// points, and a compact per-destination control state.
//
// The package exposes:
//
//   - Scanner: the FlashRoute engine itself, runnable over any PacketConn
//     (a raw socket in production, or the bundled Internet simulation);
//   - Simulation: a seeded synthetic IPv4 Internet with virtual time,
//     reproducing the structural properties the paper's evaluation
//     depends on (see DESIGN.md);
//   - RunYarrp / RunScamper: the baseline scanners the paper compares
//     against;
//   - Hitlist helpers modeling the ISI census hitlist and its bias.
//
// Quick start (see examples/quickstart):
//
//	sim := flashroute.NewSimulation(flashroute.SimConfig{Blocks: 65536, Seed: 1})
//	cfg := flashroute.DefaultConfig()
//	res, err := sim.Scan(cfg)
//	fmt.Println(res.InterfaceCount(), res.Probes, res.ScanTime)
package flashroute

import (
	"context"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/netsim"
	"github.com/flashroute/flashroute/internal/output"
	"github.com/flashroute/flashroute/internal/probe"
	"github.com/flashroute/flashroute/internal/rawsock"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/trace"
)

// PacketConn is the raw network access the scanners need: write whole
// IPv4 probe packets and read whole response packets. The bundled
// Simulation provides one; live scanning uses the Linux raw-socket
// transport in internal/rawsock (cmd/flashroute's -transport raw).
// Transports may additionally implement the engine's optional
// BatchWriter/BatchReader capabilities (see Config.Batch) to amortize
// per-packet transport overhead; the engine detects them by interface
// assertion, so plain PacketConns keep working unchanged.
type PacketConn interface {
	WritePacket(pkt []byte) error
	ReadPacket(buf []byte) (int, error)
	Close() error
}

// Clock abstracts time for the engines; use RealClock for live scanning.
// Simulations supply their own deterministic virtual clock.
type Clock = simclock.Waiter

// RealClock returns the wall clock.
func RealClock() Clock { return simclock.NewReal() }

// PreprobeMode selects the preprobing strategy (paper §3.3, §4.1.3).
type PreprobeMode int

const (
	// PreprobeOff disables the preprobing phase.
	PreprobeOff PreprobeMode = iota
	// PreprobeRandom preprobes the scan's own random representatives.
	PreprobeRandom
	// PreprobeHitlist preprobes hitlist addresses while the main scan
	// probes random representatives (avoids the hitlist bias, §5.1).
	PreprobeHitlist
)

// Config parameterizes a FlashRoute scan. Zero values of the TTL/gap
// fields mean "paper default"; use DefaultConfig for the recommended
// FlashRoute-16 configuration.
type Config struct {
	// Blocks is the number of /24 blocks scanned (the size of the DCB
	// array, paper §3.4).
	Blocks int
	// Targets returns the representative address for each block. When
	// nil, a Simulation-backed scan uses its random representatives.
	Targets func(block int) uint32
	// BlockOf maps an address to its block index. When nil, a
	// Simulation-backed scan uses its universe.
	BlockOf func(addr uint32) (int, bool)
	// Source is the vantage point's address.
	Source uint32

	// SplitTTL is where backward and forward probing commence for routes
	// without measured distances (default 16).
	SplitTTL uint8
	// GapLimit stops forward probing after that many consecutive silent
	// hops (default 5). Set GapLimitZero for a 0 gap limit.
	GapLimit uint8
	// GapLimitZero forces a gap limit of zero (no forward probing); a
	// plain zero GapLimit means "default 5".
	GapLimitZero bool
	// PPS is the probing rate (default 100,000); <=0 means unthrottled.
	PPS int
	// Unthrottled disables pacing (Table 5 style); a plain zero PPS means
	// "default 100 Kpps".
	Unthrottled bool
	// Senders, Receivers and Batch size the engine's one data path; none
	// of them selects a different implementation.
	//
	// Senders is the number of sending goroutines; the destination
	// permutation is sharded into that many contiguous slices, each driven
	// by its own sender with its own pacer so the aggregate rate still
	// honors PPS. <=0 means 1 — the paper's configuration, and the only
	// one whose probe interleaving is deterministic on the simulation's
	// virtual clock.
	Senders int
	// Receivers is the number of workers in the receive pipeline: workers
	// parse packets in parallel and dispatch each decoded reply to the
	// worker owning block % Receivers (block-affinity dispatch). <=0 means
	// 1 — the paper's single receiving thread (§3.2), which owns every
	// block and never dispatches. One worker reads the PacketConn itself;
	// more need per-worker read handles, which simulation-backed and
	// raw-socket scans wire automatically (custom transports: see
	// core.PacketReader).
	Receivers int
	// Batch is the size of the per-sender packet arena and the per-worker
	// receive arena: the most packets moved per transport call when the
	// transport supports batch I/O (core.BatchWriter / core.BatchReader —
	// the simulation and the raw-socket backend both do). Senders flush
	// their arena before every blocking point, so results do not depend
	// on it. <=0 means 1: one packet per transport call.
	Batch int

	// Preprobe selects the preprobing mode (default PreprobeRandom);
	// PreprobeTargets supplies hitlist addresses for PreprobeHitlist.
	Preprobe        PreprobeMode
	PreprobeTargets func(block int) uint32
	// ProximitySpan is the distance-prediction span (default 5).
	ProximitySpan int

	// PreprobeRetries re-sends the preprobe to blocks still unmeasured
	// after each preprobing pass, up to that many extra passes — loss
	// tolerance for lossy paths (0, the default, is the paper's single
	// pass).
	PreprobeRetries int
	// ForwardRetries re-probes the trailing gap-limit window of a
	// destination whose forward probing went silent, up to that many times
	// per destination per scan, so a burst of lost replies does not end
	// forward probing early. 0 (the default) disables retries.
	ForwardRetries int
	// ForwardTimeout is how long a destination's forward probing must have
	// been silent before a retry fires (default 500ms). Only meaningful
	// with ForwardRetries > 0.
	ForwardTimeout time.Duration

	// NoRedundancyElimination disables backward-probing termination at
	// convergence points (paper Table 1 "off").
	NoRedundancyElimination bool
	// Exhaustive probes every TTL 1..32 for every destination with no
	// early termination (the paper's Yarrp-32-UDP simulation mode).
	Exhaustive bool
	// ExtraScans enables discovery-optimized mode with that many
	// port-varied extra scans (paper §5.2).
	ExtraScans int
	// AdaptiveExtraScans bounds extra-scan start TTLs by observed route
	// lengths (paper §5.4; ~40% extra-scan probe savings).
	AdaptiveExtraScans bool
	// VaryExtraScanTargets makes each extra scan probe a different
	// address within each block (paper §5.4's mitigation for
	// one-address-per-/24), exposing address-dependent internal paths.
	// Simulation-backed scans derive the alternates automatically; custom
	// setups set ExtraScanTargets instead.
	VaryExtraScanTargets bool
	// ExtraScanTargets supplies the per-(block, scan) alternate
	// destination explicitly.
	ExtraScanTargets func(block, scan int) uint32
	// Skip excludes blocks (exclusion lists, reserved space).
	Skip func(block int) bool
	// CollectRoutes retains full per-destination hop lists in the Result.
	CollectRoutes bool
	// Observer, when set, sees every probe issued.
	Observer func(dst uint32, ttl uint8, at time.Duration)
	// Seed keys the probing permutation.
	Seed int64

	// CheckpointSink arms crash-safe checkpointing: the engine hands it a
	// versioned, checksummed snapshot of the complete scan state on every
	// trigger and once more on the way out (cancellation included). Resume
	// a snapshot with ResumeScanner / Simulation.ResumeScan.
	CheckpointSink func(snapshot []byte) error
	// CheckpointEvery snapshots every N probes sent; CheckpointInterval
	// snapshots when that much scan time has passed since the last one.
	// Both zero (with a sink set) means only the final snapshot.
	CheckpointEvery    int
	CheckpointInterval time.Duration

	// DrainWait is how long to keep receiving after the last probe of a
	// phase (default 2s); MinRoundTime is the minimum duration of a main
	// probing round (default 1s). The defaults fit live scanning; tests
	// and services running many short real-clock scans shrink them.
	DrainWait    time.Duration
	MinRoundTime time.Duration

	// SendRetries bounds the retransmissions of a probe whose WritePacket
	// failed with a transient (Temporary()) error, with capped exponential
	// backoff between attempts. 0 means the default of 3; negative
	// disables retrying. Permanent failures are never retried; they are
	// counted in Result.SendErrors.
	SendRetries int
	// CancelGrace is how long a cancelled scan keeps draining in-flight
	// replies before returning its partial result (default: the engine's
	// drain wait).
	CancelGrace time.Duration
}

// DefaultConfig returns the paper's recommended FlashRoute-16
// configuration (split 16, gap 5, span 5, random preprobing, 100 Kpps).
func DefaultConfig() Config {
	return Config{
		SplitTTL:      16,
		GapLimit:      5,
		PPS:           100_000,
		Preprobe:      PreprobeRandom,
		ProximitySpan: 5,
	}
}

// toCore translates the public config to the engine's.
func (c Config) toCore() core.Config {
	cc := core.DefaultConfig()
	cc.Blocks = c.Blocks
	cc.Targets = core.TargetFunc(c.Targets)
	cc.BlockOf = core.BlockFunc(c.BlockOf)
	cc.Source = c.Source
	if c.SplitTTL != 0 {
		cc.SplitTTL = c.SplitTTL
	}
	if c.GapLimit != 0 {
		cc.GapLimit = c.GapLimit
	}
	if c.GapLimitZero {
		cc.GapLimit = 0
	}
	if c.PPS != 0 {
		cc.PPS = c.PPS
	}
	if c.Unthrottled {
		cc.PPS = 0
	}
	cc.Senders = c.Senders
	cc.Receivers = c.Receivers
	cc.Batch = c.Batch
	cc.Preprobe = core.PreprobeMode(c.Preprobe)
	cc.PreprobeTargets = core.TargetFunc(c.PreprobeTargets)
	cc.ProximitySpan = c.ProximitySpan
	cc.PreprobeRetries = c.PreprobeRetries
	cc.ForwardRetries = c.ForwardRetries
	cc.ForwardTimeout = c.ForwardTimeout
	cc.NoRedundancyElimination = c.NoRedundancyElimination
	cc.Exhaustive = c.Exhaustive
	cc.ExtraScans = c.ExtraScans
	cc.AdaptiveExtraScans = c.AdaptiveExtraScans
	cc.ExtraScanTargets = c.ExtraScanTargets
	cc.Skip = c.Skip
	cc.CollectRoutes = c.CollectRoutes
	cc.Observer = core.ProbeObserver(c.Observer)
	cc.Seed = c.Seed
	cc.CheckpointSink = c.CheckpointSink
	cc.CheckpointEvery = c.CheckpointEvery
	cc.CheckpointInterval = c.CheckpointInterval
	if c.DrainWait != 0 {
		cc.DrainWait = c.DrainWait
	}
	if c.MinRoundTime != 0 {
		cc.MinRoundTime = c.MinRoundTime
	}
	cc.SendRetries = c.SendRetries
	cc.CancelGrace = c.CancelGrace
	return cc
}

// Hop is one discovered interface on a route and Route the discovered
// path to one destination; Hop6 and Route6 are their IPv6 forms.
type (
	Hop    = trace.HopOf[uint32]
	Route  = trace.RouteOf[uint32]
	Hop6   = trace.HopOf[Addr6]
	Route6 = trace.RouteOf[Addr6]
)

// ResultOf is what a scan produced, for either address family: Result
// for IPv4 scans, Result6 for IPv6 scans.
type ResultOf[A comparable] struct {
	routes[A]
	inner *core.ResultOf[A]
}

type (
	Result  = ResultOf[uint32]
	Result6 = ResultOf[Addr6]
)

func newResult[A comparable](res *core.ResultOf[A]) *ResultOf[A] {
	return &ResultOf[A]{routes: routes[A]{res.Store}, inner: res}
}

// Probes returns the total probe count (preprobing and extra scans
// included).
func (r *ResultOf[A]) Probes() uint64 { return r.inner.ProbesSent }

// PreprobeProbes returns the probes spent in the preprobing phase.
func (r *ResultOf[A]) PreprobeProbes() uint64 { return r.inner.PreprobeProbes }

// ScanTime returns the scan's total duration on its clock.
func (r *ResultOf[A]) ScanTime() time.Duration { return r.inner.ScanTime }

// Rounds returns the number of main probing rounds.
func (r *ResultOf[A]) Rounds() int { return r.inner.Rounds }

// MeasuredDistance returns the preprobe-measured hop distance of a block
// (0 when unmeasured) and whether it came from a direct measurement or a
// proximity-span prediction. IPv6 results do not keep the per-target
// distances and always report 0.
func (r *ResultOf[A]) MeasuredDistance(block int) (distance uint8, predicted bool) {
	if r.inner.Measured != nil && r.inner.Measured[block] != 0 {
		return r.inner.Measured[block], false
	}
	if r.inner.Predicted != nil && r.inner.Predicted[block] != 0 {
		return r.inner.Predicted[block], true
	}
	return 0, false
}

// DistancesMeasured and DistancesPredicted count preprobing outcomes.
func (r *ResultOf[A]) DistancesMeasured() int  { return r.inner.DistancesMeasured }
func (r *ResultOf[A]) DistancesPredicted() int { return r.inner.DistancesPredicted }

// MismatchedResponses counts responses discarded because their quoted
// destination failed the source-port checksum test (in-flight destination
// modification, paper §5.3).
func (r *ResultOf[A]) MismatchedResponses() uint64 { return r.inner.MismatchedResponses }

// RetransmittedProbes counts probes re-issued by the loss-tolerance knobs
// (PreprobeRetries and ForwardRetries); always zero with both at their
// zero defaults.
func (r *ResultOf[A]) RetransmittedProbes() uint64 { return r.inner.RetransmittedProbes }

// DuplicateResponses counts replies discarded because their (destination,
// TTL) had already been processed — duplicated packets on the network, or
// re-answers elicited by retransmitted probes.
func (r *ResultOf[A]) DuplicateResponses() uint64 { return r.inner.DuplicateResponses }

// ReadErrors counts receive-path read errors (transport failures distinct
// from unparseable packets).
func (r *ResultOf[A]) ReadErrors() uint64 { return r.inner.ReadErrors }

// SendErrors counts probes abandoned because the transport's WritePacket
// failed permanently or exhausted SendRetries.
func (r *ResultOf[A]) SendErrors() uint64 { return r.inner.SendErrors }

// SendRetries counts write attempts re-issued after transient
// (Temporary()) transport failures.
func (r *ResultOf[A]) SendRetries() uint64 { return r.inner.SendRetries }

// CheckpointErrors counts snapshots CheckpointSink failed to persist
// (the scan continues regardless).
func (r *ResultOf[A]) CheckpointErrors() uint64 { return r.inner.CheckpointErrors }

// Interrupted reports that the scan was cancelled before completion; the
// result is the valid partial state at cancellation plus the CancelGrace
// drain.
func (r *ResultOf[A]) Interrupted() bool { return r.inner.Interrupted }

// routes is the read side of a trace store, shared by ResultOf and
// ClusterResultOf: the discovered interfaces and routes and their
// writers.
type routes[A comparable] struct {
	st *trace.StoreOf[A]
}

// InterfaceCount returns the number of unique responding interfaces.
func (r routes[A]) InterfaceCount() int { return r.st.Interfaces().Len() }

// HasInterface reports whether the given address was discovered.
func (r routes[A]) HasInterface(addr A) bool { return r.st.Interfaces().Has(addr) }

// ForEachInterface visits every discovered interface address.
func (r routes[A]) ForEachInterface(fn func(addr A)) { r.st.Interfaces().ForEach(fn) }

// NumRoutes returns the number of destinations with at least one
// response.
func (r routes[A]) NumRoutes() int { return r.st.NumRoutes() }

// ReachedCount returns how many destinations answered.
func (r routes[A]) ReachedCount() int { return r.st.ReachedCount() }

// Route returns the discovered route to dst, hops sorted by TTL, or nil
// if nothing about dst was observed. Hop lists are populated only when
// the scan's CollectRoutes was set. The route is a fresh copy: the
// caller may keep and modify it.
func (r routes[A]) Route(dst A) *trace.RouteOf[A] { return r.st.Route(dst) }

// ForEachRoute visits every route with responses, each a fresh copy fn
// may keep and modify. The order is unspecified (with Receivers > 1 it
// follows the receive stripes); WriteJSONL and WriteCSV emit in
// ascending destination order.
func (r routes[A]) ForEachRoute(fn func(*trace.RouteOf[A])) { r.st.ForEachRoute(fn) }

// WriteJSONL writes collected routes as one JSON object per line, in
// ascending destination order.
func (r routes[A]) WriteJSONL(w interface{ Write([]byte) (int, error) }) error {
	return r.st.WriteJSONL(w)
}

// WriteCSV writes collected routes as CSV rows
// (destination,ttl,hop,rtt_us,reached), in ascending destination order.
func (r routes[A]) WriteCSV(w interface{ Write([]byte) (int, error) }) error {
	return r.st.WriteCSV(w)
}

// WriteBinary writes the collected routes of an IPv4 scan in the compact
// binary record format (read back with cmd/frreport or
// internal/output.Reader) and returns the number of records. The format
// has 4-byte addresses, so there is no IPv6 form.
func WriteBinary(w interface{ Write([]byte) (int, error) }, r *Result) (uint64, error) {
	return output.WriteStore(w, r.st)
}

// Scanner runs FlashRoute scans over an arbitrary PacketConn and Clock —
// the integration point for custom (non-simulated) transports.
type Scanner struct {
	inner *core.Scanner
}

// NewScanner validates the configuration and binds it to a transport.
func NewScanner(cfg Config, conn PacketConn, clock Clock) (*Scanner, error) {
	sc, err := core.NewScanner(wireReaders(cfg, conn), conn, clock)
	if err != nil {
		return nil, err
	}
	return &Scanner{inner: sc}, nil
}

// ErrCheckpointComplete is returned by the resume entry points when the
// snapshot records a scan that already ran to completion.
var ErrCheckpointComplete = core.ErrCheckpointComplete

// ResumeScanner reconstructs a scan mid-flight from a checkpoint snapshot
// (written by Config.CheckpointSink); Run continues it. The configuration
// must describe the same scan — same Seed, Blocks and probing geometry —
// while machinery knobs (Senders, Receivers, PPS, checkpointing) are free
// to differ.
func ResumeScanner(cfg Config, conn PacketConn, clock Clock, snapshot []byte) (*Scanner, error) {
	sc, err := core.ResumeScanner(wireReaders(cfg, conn), conn, clock, snapshot)
	if err != nil {
		return nil, err
	}
	return &Scanner{inner: sc}, nil
}

// ErrRawUnsupported is returned by DialRaw on platforms without the
// raw-socket transport (anything but linux/amd64 and linux/arm64).
var ErrRawUnsupported = rawsock.ErrUnsupported

// DialRaw opens the Linux raw-socket transport: an IPPROTO_RAW send
// socket plus an IPPROTO_ICMP receive socket, with batch I/O mapped onto
// sendmmsg(2)/recvmmsg(2) when Config.Batch > 1. Requires CAP_NET_RAW
// (typically root). The returned PacketConn plugs directly into
// NewScanner; Receivers > 1 and Batch work out of the box.
func DialRaw() (PacketConn, error) {
	c, err := rawsock.Dial()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// wireReaders translates the config and hands sharded receive workers
// their per-worker read handles: simulation and raw-socket connections
// know how to provide them, so Receivers > 1 works out of the box.
func wireReaders(cfg Config, conn PacketConn) core.Config {
	cc := cfg.toCore()
	if cfg.Receivers > 1 {
		switch c := conn.(type) {
		case *netsim.Conn:
			cc.NewReader = func() core.PacketReader { return c.NewReader() }
		case *rawsock.Conn:
			cc.NewReader = func() core.PacketReader { return c.NewReader() }
		}
	}
	return cc
}

// Run executes the scan and returns its result.
func (s *Scanner) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// SetRate retargets the aggregate probing rate, mid-scan included: the
// new rate is re-split across the sender shards exactly as Config.PPS
// was at startup, each shard adopting its new share at its next probe.
// Safe to call from any goroutine at any time. Rates below 1 pps are
// clamped to 1 — SetRate reshapes pacing, it cannot remove it.
func (s *Scanner) SetRate(pps int) { s.inner.SetRate(pps) }

// RunContext is Run with graceful cancellation: when ctx is cancelled the
// scan stops sending, drains in-flight replies for Config.CancelGrace,
// writes a final checkpoint (when checkpointing is armed) and returns the
// valid partial result with Interrupted set.
func (s *Scanner) RunContext(ctx context.Context) (*Result, error) {
	res, err := s.inner.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return newResult(res), nil
}

// FormatAddr renders an address in dotted-quad form.
func FormatAddr(addr uint32) string { return probe.FormatAddr(addr) }

// ParseAddr parses a dotted-quad address.
func ParseAddr(s string) (uint32, error) { return probe.ParseAddr(s) }

// Footprint is the memory accounting of an IPv4 scan configuration: the
// paper's §3.4/§5.4 control-state math (DCB array, per-DCB locks,
// side arrays) extended with the slab-backed result store.
type Footprint = core.Footprint

// EstimateFootprint prices a scan over the given number of /24 blocks
// without allocating anything — the planning mode behind the CLI's
// -footprint flag. Routes are assumed collected; the ResultBytes field
// models every block responding with hops out to the mean route length.
func EstimateFootprint(blocks int) Footprint {
	return core.EstimateFootprint(blocks)
}

// CountBlocks returns the number of /24 blocks the given CIDRs cover —
// the sizing input to EstimateFootprint when the universe is defined by
// address ranges rather than a block count.
func CountBlocks(cidrs []string) (int, error) {
	u, err := netsim.ParseUniverse(cidrs)
	if err != nil {
		return 0, err
	}
	return u.NumBlocks(), nil
}
