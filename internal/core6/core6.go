// Package core6 implements FlashRoute6 — the IPv6 extension of FlashRoute
// the paper plans in §5.4.
//
// The probing engine is the generic internal/core engine instantiated at
// the 16-byte IPv6 address type: rounds, sharded multi-sender probing,
// pacing, Doubletree stop-set termination, the forward gap limit,
// duplicate-reply dedup, and the loss-tolerance retries all come from the
// shared implementation. This package contributes only what §5.4 says
// must differ:
//
//   - the control state is indexed by *candidate-list position* — IPv6
//     targets are sparse lists, not a dense prefix lattice — with the
//     receiving thread locating DCBs through a hash index keyed by
//     address (one map lookup, the price of 2^128 sparsity);
//   - proximity-span prediction does not carry over: numerically adjacent
//     IPv6 candidates share nothing. Instead, measured distances of
//     targets within the same /48 predict their list-mates' distances
//     (same-prefix prediction), supplied to the engine as a Predict hook;
//   - the IPv6 wire formats (internal/probe6) behind the engine's Family
//     interface.
package core6

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sort"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/trace"
)

// PacketConn is the raw IPv6 network access (same contract as the IPv4
// engine's).
type PacketConn = core.PacketConn

// BatchWriter and BatchReader are the optional batch-I/O capabilities a
// transport may implement (same contracts as the IPv4 engine's).
type (
	BatchWriter = core.BatchWriter
	BatchReader = core.BatchReader
)

// PacketReader is the per-receiver read handle of the sharded receive
// pipeline (same contract as the IPv4 engine's).
type PacketReader = core.PacketReader

// Config parameterizes a FlashRoute6 scan.
type Config struct {
	// Targets is the candidate list to trace (Yarrp6-style).
	Targets []probe6.Addr
	// Source is the vantage point address.
	Source probe6.Addr

	// SplitTTL, GapLimit, MaxTTL as in IPv4 (§3.2); defaults 16/5/32.
	SplitTTL uint8
	GapLimit uint8
	MaxTTL   uint8

	// PPS throttles probing; <= 0 disables (real-clock only).
	PPS int

	// Senders, Receivers and Batch size the engine's one data path
	// (core.ConfigOf): sending goroutines sharing the PPS budget (<= 0
	// means 1, the deterministic configuration), workers in the receive
	// pipeline (<= 0 means 1), and packets per transport call (<= 0 means
	// 1). NewReader supplies the per-worker read handles and is required
	// when Receivers > 1; without it the lone worker reads the conn itself.
	Senders   int
	Receivers int
	NewReader func() PacketReader
	Batch     int

	// Preprobe enables the one-probe distance measurement phase; with
	// SamePrefixPrediction, measured distances predict unmeasured targets
	// within the same /48.
	Preprobe             bool
	SamePrefixPrediction bool

	// PreprobeRetries re-preprobes still-unmeasured targets after the
	// preprobe drain, up to this many extra passes (loss tolerance).
	PreprobeRetries int

	// ForwardRetries lets a target whose forward probing went silent for
	// the whole GapLimit rewind and re-probe the gap up to this many
	// times; ForwardTimeout is how long it waits for in-flight replies
	// first (default 500ms).
	ForwardRetries int
	ForwardTimeout time.Duration

	// NoRedundancyElimination disables stop-set termination.
	NoRedundancyElimination bool

	// Skip excludes candidate-list entries from the scan; the cluster
	// coordinator uses it to carve per-worker shards. nil scans all.
	Skip func(block int) bool

	// StopSet substitutes the engine's Doubletree stop set (nil = the
	// default in-process implementation); TraceSink tees discovery
	// events. See the generic core.ConfigOf fields of the same names.
	StopSet   core.StopSet[probe6.Addr]
	TraceSink core.TraceSink[probe6.Addr]

	// CollectRoutes keeps per-target hop lists.
	CollectRoutes bool

	// Observer, if non-nil, sees every probe issuance (same contract as
	// the IPv4 engine's Config.Observer: serialized across senders, so it
	// need not be thread-safe).
	Observer func(dst probe6.Addr, ttl uint8, at time.Duration)

	Seed         int64
	DrainWait    time.Duration
	MinRoundTime time.Duration

	// CheckpointSink arms crash-safe checkpointing: it receives every
	// snapshot the engine writes (see core.ConfigOf). CheckpointEvery and
	// CheckpointInterval set the probe-count and scan-time cadences.
	CheckpointSink     func(snapshot []byte) error
	CheckpointEvery    int
	CheckpointInterval time.Duration

	// SendRetries bounds retransmissions of probes whose WritePacket
	// failed transiently (0 = engine default, negative disables);
	// CancelGrace is the post-cancellation drain window.
	SendRetries int
	CancelGrace time.Duration
}

// DefaultConfig returns FlashRoute6 defaults.
func DefaultConfig() Config {
	return Config{
		SplitTTL:             16,
		GapLimit:             5,
		MaxTTL:               probe6.MaxHopLimit,
		PPS:                  100_000,
		Preprobe:             true,
		SamePrefixPrediction: true,
		DrainWait:            2 * time.Second,
		MinRoundTime:         time.Second,
	}
}

// Hop is a discovered interface on a route.
type Hop struct {
	TTL  uint8
	Addr probe6.Addr
	RTT  time.Duration
}

// Route is the discovered path to one target.
type Route struct {
	Dst     probe6.Addr
	Hops    []Hop
	Reached bool
	Length  uint8
}

// Result is what a scan produced.
type Result struct {
	ProbesSent     uint64
	PreprobeProbes uint64
	ScanTime       time.Duration
	Rounds         int

	DistancesMeasured  int
	DistancesPredicted int

	MismatchedResponses uint64
	UnparsedResponses   uint64
	ReadErrors          uint64

	// RetransmittedProbes / DuplicateResponses report the loss-tolerance
	// machinery: probes re-issued by preprobe and forward-gap retries,
	// and replies discarded by the duplicate guard.
	RetransmittedProbes uint64
	DuplicateResponses  uint64

	// SendErrors / SendRetries report the transport fault tolerance:
	// probes abandoned on permanent write failure and transient-failure
	// retry attempts. CheckpointErrors counts CheckpointSink failures.
	// Interrupted reports cancellation before completion.
	SendErrors       uint64
	SendRetries      uint64
	CheckpointErrors uint64
	Interrupted      bool

	store *trace.StoreOf[probe6.Addr]
}

// InterfaceCount returns the number of unique router interfaces found.
func (r *Result) InterfaceCount() int { return r.store.Interfaces().Len() }

// HasInterface reports whether addr was discovered.
func (r *Result) HasInterface(a probe6.Addr) bool { return r.store.Interfaces().Has(a) }

// Interfaces returns the discovered router interfaces in ascending
// address order.
func (r *Result) Interfaces() []probe6.Addr {
	set := r.store.Interfaces()
	out := make([]probe6.Addr, 0, set.Len())
	for a := range set.All() {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i][:], out[j][:]) < 0
	})
	return out
}

// Route returns the route traced to a target (nil if no responses), with
// hops sorted by TTL.
func (r *Result) Route(a probe6.Addr) *Route {
	rt := r.store.Route(a)
	if rt == nil {
		return nil
	}
	out := &Route{Dst: rt.Dst, Reached: rt.Reached, Length: rt.Length}
	for _, h := range rt.Hops {
		out.Hops = append(out.Hops, Hop{TTL: h.TTL, Addr: h.Addr, RTT: h.RTT})
	}
	return out
}

// ForEachRoute visits every target with at least one response, hops
// sorted by TTL.
func (r *Result) ForEachRoute(fn func(*Route)) {
	r.store.ForEachRoute(func(rt *trace.RouteOf[probe6.Addr]) {
		out := &Route{Dst: rt.Dst, Reached: rt.Reached, Length: rt.Length}
		for _, h := range rt.Hops {
			out.Hops = append(out.Hops, Hop{TTL: h.TTL, Addr: h.Addr, RTT: h.RTT})
		}
		sort.Slice(out.Hops, func(i, j int) bool { return out.Hops[i].TTL < out.Hops[j].TTL })
		fn(out)
	})
}

// WriteJSONL writes the stored routes as one JSON object per line, in
// ascending destination order (hop lists require Config.CollectRoutes).
func (r *Result) WriteJSONL(w io.Writer) error { return r.store.WriteJSONL(w) }

// WriteCSV writes the stored routes as CSV rows in ascending destination
// order (destination,ttl,hop,rtt_us,reached).
func (r *Result) WriteCSV(w io.Writer) error { return r.store.WriteCSV(w) }

// ReachedCount returns how many targets answered.
func (r *Result) ReachedCount() int {
	n := 0
	r.store.ForEachRoute(func(rt *trace.RouteOf[probe6.Addr]) {
		if rt.Reached {
			n++
		}
	})
	return n
}

// family6 supplies the IPv6 wire formats and bounds to the generic
// engine.
type family6 struct{}

func (family6) MaxTTL() uint8    { return probe6.MaxHopLimit }
func (family6) PermSalt() uint64 { return 0x6b7a5c3d }

func (family6) BuildProbe(buf []byte, src, dst probe6.Addr, ttl uint8, preprobe bool,
	elapsed time.Duration, srcPortOffset uint16) int {
	return probe6.BuildProbe(buf, src, dst, ttl, preprobe, elapsed,
		srcPortOffset, probe6.TracerouteDstPort)
}

func (family6) ParseReply(pkt []byte, scanOffset uint16, now time.Duration) core.Reply[probe6.Addr] {
	resp, err := probe6.ParseResponse(pkt)
	if err != nil {
		return core.Reply[probe6.Addr]{Kind: core.ReplyUnparsed}
	}
	fi, err := probe6.ParseQuote(&resp.ICMP)
	if err != nil {
		return core.Reply[probe6.Addr]{Kind: core.ReplyUnparsed}
	}
	if !fi.ChecksumMatches(scanOffset) {
		return core.Reply[probe6.Addr]{Kind: core.ReplyMismatch}
	}
	r := core.Reply[probe6.Addr]{
		Dst:      fi.Dst,
		Hop:      resp.Hop,
		InitTTL:  fi.InitHopLimit,
		Preprobe: fi.Preprobe,
		RTT:      fi.RTT(now),
	}
	switch {
	case resp.ICMP.IsHopLimitExceeded():
		r.Kind = core.ReplyTTLExceeded
	case resp.ICMP.IsUnreachable():
		r.Kind = core.ReplyUnreachable
		r.Dist = distance6(fi)
	default:
		r.Kind = core.ReplyOther
	}
	return r
}

func (family6) FormatAddr(a probe6.Addr) string { return a.String() }
func (family6) AddrLess(a, b probe6.Addr) bool  { return bytes.Compare(a[:], b[:]) < 0 }

func (family6) HashAddr(a probe6.Addr) uint64 {
	// Fold the 16 address bytes into two big-endian words, combine, and
	// run the splitmix64 finalizer for avalanche across the shard pick.
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(a[i])
		lo = lo<<8 | uint64(a[8+i])
	}
	z := (hi ^ lo) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return z ^ (z >> 31)
}

func (family6) AddrSize() int { return 16 }

func (family6) PutAddr(b []byte, a probe6.Addr) { copy(b, a[:]) }

func (family6) GetAddr(b []byte) probe6.Addr {
	var a probe6.Addr
	copy(a[:], b)
	return a
}

// distance6 recovers the target's hop distance from a
// destination-unreachable response.
func distance6(fi probe6.Info) uint8 {
	d := int(fi.InitHopLimit) - int(fi.ResidualHopLimit) + 1
	if d < 1 {
		return 1
	}
	if d > probe6.MaxHopLimit {
		return probe6.MaxHopLimit
	}
	return uint8(d)
}

// samePrefixPredict builds the engine Predict hook implementing §5.4's
// same-/48 prediction: the measured distance of any target in a /48
// predicts its unmeasured list-mates (ascending list order, last
// measurement wins — matching the pre-unification scanner).
func samePrefixPredict(targets []probe6.Addr) func(measured, predicted []uint8) {
	return func(measured, predicted []uint8) {
		prefixDist := make(map[[6]byte]uint8)
		for i := range targets {
			if m := measured[i]; m != 0 {
				var key [6]byte
				copy(key[:], targets[i][:6])
				prefixDist[key] = m
			}
		}
		for i := range targets {
			if measured[i] != 0 {
				continue
			}
			var key [6]byte
			copy(key[:], targets[i][:6])
			if p, ok := prefixDist[key]; ok {
				predicted[i] = p
			}
		}
	}
}

// Scanner runs FlashRoute6 scans: the generic engine instantiated at
// probe6.Addr with the sparse list-position index as its block mapping.
type Scanner struct {
	inner *core.ScannerOf[probe6.Addr]
}

// buildEngineConfig translates a FlashRoute6 config into the generic
// engine's, installing the sparse response-to-DCB lookup of §5.4:
// candidate-list position is the block index, recovered from quoted
// destinations by hash.
func buildEngineConfig(cfg Config) (core.ConfigOf[probe6.Addr], error) {
	if len(cfg.Targets) == 0 {
		return core.ConfigOf[probe6.Addr]{}, errors.New("core6: Config.Targets must be non-empty")
	}
	targets := cfg.Targets
	index := make(map[probe6.Addr]uint32, len(targets))
	for i, a := range targets {
		index[a] = uint32(i)
	}
	ecfg := core.ConfigOf[probe6.Addr]{
		Blocks:  len(targets),
		Targets: func(block int) probe6.Addr { return targets[block] },
		BlockOf: func(a probe6.Addr) (int, bool) {
			i, ok := index[a]
			return int(i), ok
		},
		Source:                  cfg.Source,
		SplitTTL:                cfg.SplitTTL,
		GapLimit:                cfg.GapLimit,
		MaxTTL:                  cfg.MaxTTL,
		PPS:                     cfg.PPS,
		Senders:                 cfg.Senders,
		Receivers:               cfg.Receivers,
		NewReader:               cfg.NewReader,
		Batch:                   cfg.Batch,
		PreprobeRetries:         cfg.PreprobeRetries,
		ForwardRetries:          cfg.ForwardRetries,
		ForwardTimeout:          cfg.ForwardTimeout,
		NoRedundancyElimination: cfg.NoRedundancyElimination,
		Skip:                    cfg.Skip,
		StopSet:                 cfg.StopSet,
		TraceSink:               cfg.TraceSink,
		CollectRoutes:           cfg.CollectRoutes,
		Observer:                cfg.Observer,
		Seed:                    cfg.Seed,
		DrainWait:               cfg.DrainWait,
		MinRoundTime:            cfg.MinRoundTime,
		CheckpointSink:          cfg.CheckpointSink,
		CheckpointEvery:         cfg.CheckpointEvery,
		CheckpointInterval:      cfg.CheckpointInterval,
		SendRetries:             cfg.SendRetries,
		CancelGrace:             cfg.CancelGrace,
	}
	if cfg.Preprobe {
		ecfg.Preprobe = core.PreprobeRandom
		if cfg.SamePrefixPrediction {
			ecfg.Predict = samePrefixPredict(targets)
		}
		// With Predict nil and ProximitySpan 0 the engine predicts
		// nothing, which is exactly the no-prediction configuration.
	} else {
		ecfg.Preprobe = core.PreprobeOff
	}
	return ecfg, nil
}

// Family returns the probe6.Addr family, for callers that drive the
// generic engine directly (the cluster coordinator).
func Family() core.Family[probe6.Addr] { return family6{} }

// EngineConfig translates a FlashRoute6 config into the generic engine's
// form — the same translation NewScanner performs — so the cluster
// coordinator can derive per-worker engine configs from one v6 spec.
func EngineConfig(cfg Config) (core.ConfigOf[probe6.Addr], error) {
	return buildEngineConfig(cfg)
}

// NewScanner validates the configuration.
func NewScanner(cfg Config, conn PacketConn, clock simclock.Waiter) (*Scanner, error) {
	ecfg, err := buildEngineConfig(cfg)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewScannerOf[probe6.Addr](family6{}, ecfg, conn, clock)
	if err != nil {
		return nil, err
	}
	return &Scanner{inner: inner}, nil
}

// ResumeScanner reconstructs a FlashRoute6 scan mid-flight from a
// checkpoint snapshot; Run on the returned scanner continues it. The
// configuration must describe the same scan (targets, seed, geometry).
func ResumeScanner(cfg Config, conn PacketConn, clock simclock.Waiter, data []byte) (*Scanner, error) {
	ecfg, err := buildEngineConfig(cfg)
	if err != nil {
		return nil, err
	}
	inner, err := core.Resume[probe6.Addr](family6{}, ecfg, conn, clock, data)
	if err != nil {
		return nil, err
	}
	return &Scanner{inner: inner}, nil
}

// SetRate retargets the aggregate probing rate, mid-scan included (see
// the generic engine's SetRate: re-split across shards, adopted at each
// shard's next probe; pps < 1 clamps to 1).
func (s *Scanner) SetRate(pps int) { s.inner.SetRate(pps) }

// Run executes the scan (same actor contract as the IPv4 engine: call
// from a goroutine not registered with the clock).
func (s *Scanner) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with graceful cancellation: on ctx cancellation the
// scan stops sending, drains for CancelGrace, and returns the valid
// partial result with Interrupted set (writing a final checkpoint when
// checkpointing is armed).
func (s *Scanner) RunContext(ctx context.Context) (*Result, error) {
	eres, err := s.inner.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return &Result{
		ProbesSent:          eres.ProbesSent,
		PreprobeProbes:      eres.PreprobeProbes,
		ScanTime:            eres.ScanTime,
		Rounds:              eres.Rounds,
		DistancesMeasured:   eres.DistancesMeasured,
		DistancesPredicted:  eres.DistancesPredicted,
		MismatchedResponses: eres.MismatchedResponses,
		UnparsedResponses:   eres.UnparsedResponses,
		ReadErrors:          eres.ReadErrors,
		RetransmittedProbes: eres.RetransmittedProbes,
		DuplicateResponses:  eres.DuplicateResponses,
		SendErrors:          eres.SendErrors,
		SendRetries:         eres.SendRetries,
		CheckpointErrors:    eres.CheckpointErrors,
		Interrupted:         eres.Interrupted,
		store:               eres.Store,
	}, nil
}
