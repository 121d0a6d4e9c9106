package flashroute

import (
	"context"
	"time"

	"github.com/flashroute/flashroute/internal/core6"
	"github.com/flashroute/flashroute/internal/netsim6"
	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/simclock"
)

// Addr6 is an IPv6 address (value type, usable as a map key).
type Addr6 = probe6.Addr

// Sim6Config parameterizes a simulated IPv6 Internet (the §5.4 extension:
// sparse allocated prefixes with candidate target lists).
type Sim6Config struct {
	// Prefixes is the number of allocated /48s; TargetsPerPrefix the
	// candidate addresses per prefix.
	Prefixes         int
	TargetsPerPrefix int
	Seed             int64
	RealTime         bool
	// Lockstep removes the timing-dependent topology behaviors (ICMP
	// rate limiting, RTT jitter) exactly as SimConfig.Lockstep does for
	// IPv4, making discovery a pure function of the probe set. Applied
	// before Mutate.
	Lockstep bool
	// Impair layers the shared packet-level pathologies (loss, burst
	// loss, duplication, reordering, jitter) over the IPv6 network — the
	// same model, knobs and determinism guarantees as SimConfig.Impair.
	Impair Impairments
	// Mutate adjusts topology parameters before generation. It runs after
	// Impair is applied and may override it.
	Mutate func(*netsim6.Params)
}

// Simulation6 is a synthetic IPv6 Internet bound to a clock.
type Simulation6 struct {
	topo  *netsim6.Topology
	net   *netsim6.Net
	clock simclock.Waiter
	seed  int64
}

// NewSimulation6 generates the IPv6 Internet.
func NewSimulation6(cfg Sim6Config) *Simulation6 {
	p := netsim6.DefaultParams(cfg.Seed)
	if cfg.Prefixes > 0 {
		p.Prefixes = cfg.Prefixes
	}
	if cfg.TargetsPerPrefix > 0 {
		p.TargetsPerPrefix = cfg.TargetsPerPrefix
	}
	p.Impair = cfg.Impair.toNetsim()
	if cfg.Lockstep {
		p.ICMPRateLimitPPS = 0
		p.JitterRTT = 0
	}
	if cfg.Mutate != nil {
		cfg.Mutate(&p)
	}
	topo := netsim6.NewTopology(p)
	var clock simclock.Waiter
	if cfg.RealTime {
		clock = simclock.NewReal()
	} else {
		clock = simclock.NewVirtual(time.Unix(0, 0))
	}
	return &Simulation6{topo: topo, net: netsim6.New(topo, clock), clock: clock, seed: cfg.Seed}
}

// Targets returns the candidate target list.
func (s *Simulation6) Targets() []Addr6 { return s.topo.Targets() }

// Vantage returns the scanning source address.
func (s *Simulation6) Vantage() Addr6 { return s.topo.Vantage() }

// TrueDistance returns the ground-truth hop distance of a target.
func (s *Simulation6) TrueDistance(a Addr6) uint8 { return s.topo.DistanceNow(a) }

// Stats reports the network-side counters accumulated so far (same
// impairment accounting as Simulation.Stats; RateLimited counts
// per-interface ICMP budget drops, SilentHops unanswering routers).
func (s *Simulation6) Stats() SimStats {
	return SimStats{
		ProbesSeen:   s.net.Stats.ProbesSent.Load(),
		Responses:    s.net.Stats.Responses.Load(),
		RateLimited:  s.net.Stats.RateLimited.Load(),
		SilentHops:   s.net.Stats.Silent.Load(),
		NoRoute:      s.net.Stats.NoRoute.Load(),
		ProbesLost:   s.net.Stats.ProbesLost.Load(),
		RepliesLost:  s.net.Stats.RepliesLost.Load(),
		Duplicates:   s.net.Stats.Duplicates.Load(),
		Reordered:    s.net.Stats.Reordered.Load(),
		WriteFaults:  s.net.Stats.WriteFaults.Load(),
		FaultDropped: s.net.Stats.FaultDropped.Load(),
		FaultStalled: s.net.Stats.FaultStalled.Load(),
	}
}

// Config6 parameterizes a FlashRoute6 scan. Zero TTL/PPS fields mean the
// defaults (split 16, gap 5, 100 Kpps, preprobing with same-prefix
// prediction).
type Config6 struct {
	Targets []Addr6
	Source  Addr6

	SplitTTL uint8
	GapLimit uint8
	PPS      int

	// Senders, Receivers and Batch size the engine's one data path exactly
	// as the Config fields of the same names do: sending goroutines
	// sharing the PPS budget (0 means 1, the deterministic configuration),
	// workers in the receive pipeline (0 means 1; simulation-backed scans
	// wire the per-worker read handles automatically), and packets per
	// transport call (0 means 1).
	Senders   int
	Receivers int
	Batch     int

	// PreprobeRetries and ForwardRetries enable the engine's loss
	// tolerance for IPv6 scans exactly as for IPv4: extra preprobe passes
	// over still-unmeasured targets, and rewinds of forward gaps that
	// went silent. ForwardTimeout is how long a silent gap must age
	// before a rewind (0 means the engine default).
	PreprobeRetries int
	ForwardRetries  int
	ForwardTimeout  time.Duration

	PreprobeOff             bool
	NoSamePrefixPrediction  bool
	NoRedundancyElimination bool
	CollectRoutes           bool
	// Observer, when set, sees every probe issued (same contract as
	// Config.Observer: serialized across senders).
	Observer func(dst Addr6, ttl uint8, at time.Duration)
	Seed     int64

	// CheckpointSink, CheckpointEvery and CheckpointInterval arm
	// crash-safe checkpointing exactly as Config's fields of the same
	// names; resume a snapshot with Simulation6.ResumeScan.
	CheckpointSink     func(snapshot []byte) error
	CheckpointEvery    int
	CheckpointInterval time.Duration

	// DrainWait and MinRoundTime shrink the engine's phase-drain and
	// minimum-round durations, as in Config (0 means the defaults).
	DrainWait    time.Duration
	MinRoundTime time.Duration

	// SendRetries and CancelGrace configure transient-write-error retrying
	// and the post-cancellation drain, as in Config.
	SendRetries int
	CancelGrace time.Duration
}

// Result6 is what an IPv6 scan produced.
type Result6 struct {
	inner *core6.Result
}

// Probes returns the total probe count.
func (r *Result6) Probes() uint64 { return r.inner.ProbesSent }

// ScanTime returns the scan duration.
func (r *Result6) ScanTime() time.Duration { return r.inner.ScanTime }

// InterfaceCount returns the unique router interfaces found.
func (r *Result6) InterfaceCount() int { return r.inner.InterfaceCount() }

// ReachedCount returns how many targets answered.
func (r *Result6) ReachedCount() int { return r.inner.ReachedCount() }

// DistancesMeasured / DistancesPredicted report preprobing coverage.
func (r *Result6) DistancesMeasured() int  { return r.inner.DistancesMeasured }
func (r *Result6) DistancesPredicted() int { return r.inner.DistancesPredicted }

// RetransmittedProbes returns how many probes the loss-tolerance retries
// re-issued (0 unless PreprobeRetries or ForwardRetries were set).
func (r *Result6) RetransmittedProbes() uint64 { return r.inner.RetransmittedProbes }

// DuplicateResponses returns how many replies the duplicate guard
// discarded.
func (r *Result6) DuplicateResponses() uint64 { return r.inner.DuplicateResponses }

// ReadErrors counts receive-path read errors (transport failures distinct
// from unparseable packets).
func (r *Result6) ReadErrors() uint64 { return r.inner.ReadErrors }

// SendErrors counts probes abandoned on permanent write failure;
// SendRetries counts transient-failure retry attempts.
func (r *Result6) SendErrors() uint64  { return r.inner.SendErrors }
func (r *Result6) SendRetries() uint64 { return r.inner.SendRetries }

// CheckpointErrors counts snapshots the sink failed to persist.
func (r *Result6) CheckpointErrors() uint64 { return r.inner.CheckpointErrors }

// Interrupted reports that the scan was cancelled before completion.
func (r *Result6) Interrupted() bool { return r.inner.Interrupted }

// Route6 is a discovered IPv6 route.
type Route6 struct {
	Dst     Addr6
	Hops    []Hop6
	Reached bool
	Length  uint8
}

// Hop6 is one discovered IPv6 interface on a route.
type Hop6 struct {
	TTL  uint8
	Addr Addr6
	RTT  time.Duration
}

// Route returns the route traced to a target, or nil.
func (r *Result6) Route(a Addr6) *Route6 {
	rt := r.inner.Route(a)
	if rt == nil {
		return nil
	}
	out := &Route6{Dst: rt.Dst, Reached: rt.Reached, Length: rt.Length}
	for _, h := range rt.Hops {
		out.Hops = append(out.Hops, Hop6{TTL: h.TTL, Addr: h.Addr, RTT: h.RTT})
	}
	return out
}

// ForEachRoute visits every route with responses (hop lists populated
// when Config6.CollectRoutes was set), ordered by destination.
func (r *Result6) ForEachRoute(fn func(*Route6)) {
	r.inner.ForEachRoute(func(rt *core6.Route) {
		out := &Route6{Dst: rt.Dst, Reached: rt.Reached, Length: rt.Length}
		for _, h := range rt.Hops {
			out.Hops = append(out.Hops, Hop6{TTL: h.TTL, Addr: h.Addr, RTT: h.RTT})
		}
		fn(out)
	})
}

// WriteJSONL writes collected routes as one JSON object per line (the
// same deterministic destination-ordered format as Result.WriteJSONL).
func (r *Result6) WriteJSONL(w interface{ Write([]byte) (int, error) }) error {
	return r.inner.WriteJSONL(w)
}

// WriteCSV writes collected routes as CSV rows
// (destination,ttl,hop,rtt_us,reached — the same deterministic format as
// Result.WriteCSV).
func (r *Result6) WriteCSV(w interface{ Write([]byte) (int, error) }) error {
	return r.inner.WriteCSV(w)
}

// toCore6 translates the public IPv6 config to the engine's, filling in
// universe-dependent fields when unset and wiring the per-worker read
// handles of the conn it returns.
func (s *Simulation6) toCore6(cfg Config6) (core6.Config, PacketConn) {
	ic := s.toConfig6(cfg)
	conn := s.net.NewConn()
	if cfg.Receivers > 1 {
		ic.NewReader = func() core6.PacketReader { return conn.NewReader() }
	}
	return ic, conn
}

// toConfig6 is the transport-independent half of toCore6: the pure
// config translation, reused by the cluster path where every worker
// opens its own vantage connection.
func (s *Simulation6) toConfig6(cfg Config6) core6.Config {
	ic := core6.DefaultConfig()
	ic.Targets = cfg.Targets
	if ic.Targets == nil {
		ic.Targets = s.topo.Targets()
	}
	ic.Source = cfg.Source
	var zero Addr6
	if ic.Source == zero {
		ic.Source = s.topo.Vantage()
	}
	if cfg.SplitTTL != 0 {
		ic.SplitTTL = cfg.SplitTTL
	}
	if cfg.GapLimit != 0 {
		ic.GapLimit = cfg.GapLimit
	}
	if cfg.PPS != 0 {
		ic.PPS = cfg.PPS
	}
	ic.Senders = cfg.Senders
	ic.Receivers = cfg.Receivers
	ic.Batch = cfg.Batch
	ic.PreprobeRetries = cfg.PreprobeRetries
	ic.ForwardRetries = cfg.ForwardRetries
	ic.ForwardTimeout = cfg.ForwardTimeout
	ic.Preprobe = !cfg.PreprobeOff
	ic.SamePrefixPrediction = !cfg.NoSamePrefixPrediction
	ic.NoRedundancyElimination = cfg.NoRedundancyElimination
	ic.CollectRoutes = cfg.CollectRoutes
	ic.Observer = cfg.Observer
	ic.Seed = cfg.Seed
	if ic.Seed == 0 {
		ic.Seed = s.seed
	}
	ic.CheckpointSink = cfg.CheckpointSink
	ic.CheckpointEvery = cfg.CheckpointEvery
	ic.CheckpointInterval = cfg.CheckpointInterval
	if cfg.DrainWait != 0 {
		ic.DrainWait = cfg.DrainWait
	}
	if cfg.MinRoundTime != 0 {
		ic.MinRoundTime = cfg.MinRoundTime
	}
	ic.SendRetries = cfg.SendRetries
	ic.CancelGrace = cfg.CancelGrace
	return ic
}

// Scan runs a FlashRoute6 scan against this simulation, filling in
// universe-dependent fields when unset.
func (s *Simulation6) Scan(cfg Config6) (*Result6, error) {
	return s.ScanContext(context.Background(), cfg)
}

// ScanContext is Scan with graceful cancellation (see Scanner.RunContext).
func (s *Simulation6) ScanContext(ctx context.Context, cfg Config6) (*Result6, error) {
	ic, conn := s.toCore6(cfg)
	sc, err := core6.NewScanner(ic, conn, s.clock)
	if err != nil {
		return nil, err
	}
	res, err := sc.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return &Result6{inner: res}, nil
}

// ResumeScan continues a checkpointed IPv6 scan against this simulation
// (same configuration contract as ResumeScanner).
func (s *Simulation6) ResumeScan(cfg Config6, snapshot []byte) (*Result6, error) {
	return s.ResumeScanContext(context.Background(), cfg, snapshot)
}

// ResumeScanContext is ResumeScan with graceful cancellation (see
// Scanner.RunContext): the resumed run can itself be checkpointed and
// interrupted again.
func (s *Simulation6) ResumeScanContext(ctx context.Context, cfg Config6, snapshot []byte) (*Result6, error) {
	ic, conn := s.toCore6(cfg)
	sc, err := core6.ResumeScanner(ic, conn, s.clock, snapshot)
	if err != nil {
		return nil, err
	}
	res, err := sc.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return &Result6{inner: res}, nil
}
