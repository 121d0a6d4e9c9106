package main

import (
	"context"
	"fmt"
	"time"

	flashroute "github.com/flashroute/flashroute"
	"github.com/flashroute/flashroute/internal/cluster"
	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/core6"
	"github.com/flashroute/flashroute/internal/experiments"
	"github.com/flashroute/flashroute/internal/netsim"
	"github.com/flashroute/flashroute/internal/netsim6"
	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/simclock"
)

// repCtx says how one rep is to be run. With rec nil the rep goes through
// the public API, as a user's would, and nothing is wrapped. With rec set
// it goes through internal/core directly (as internal/experiments does)
// with the decorators on, and records spans under the rep span.
type repCtx struct {
	seed  int64
	quick bool
	index int // ordinal of the rep within the run; 0 is the warm-up
	// setupOnly stops the rep once set-up is done: the sample carries the
	// set-up time and nothing else.
	setupOnly bool
	rec       *recorder
	rep       int    // the rep's span
	trace     string // span trace id shared by the rep's spans
}

func (rc *repCtx) traced() bool { return rc.rec != nil }

// workload is one named set of inputs. BENCHMARK.json says why each one
// exists; the README maps each to the layers it stresses.
type workload struct {
	name string
	// targets is how many destinations one rep scans (one job, for
	// served-jobs) at full and at -quick size.
	targets, quickTargets int
	jobs                  func(quick bool) int // HTTP jobs per rep; nil: a rep is one scan
	ipv4                  bool
	senders               int  // sending goroutines of a rep, over all its engines
	realClock             bool // interfaces may differ between reps, within 1%
	fastNet               bool // drains and round floors must stay under 1% of a rep
	identical             bool // virtual clock, one seed: reps must repeat exactly
	allAnswer             bool // every destination answers: one route per block
	run                   func(rc *repCtx, targets int) (*sample, error)
	// micros runs the workload's isolated measurements at the run's size,
	// on the inputs the last traced rep captured; ref is the untraced
	// reference rep.
	micros func(o runOptions, targets int, ref, last *sample) (map[string]float64, error)
}

// opsPerRep is how many operations a rep attempts: its HTTP jobs, or its
// one scan.
func (w *workload) opsPerRep(quick bool) int {
	if w.jobs == nil {
		return 1
	}
	return w.jobs(quick)
}

func (w *workload) size(quick bool) int {
	if quick {
		return w.quickTargets
	}
	return w.targets
}

// Fast-net timing knobs (ISSUE 11): the two drains and the round floor are
// then under 1% of a rep, so a rep measures per-probe cost.
const (
	fastDrainWait    = 5 * time.Millisecond
	fastMinRoundTime = time.Millisecond
)

// fastRTT sets experiments.newFastNet's parameters: near-zero RTTs, so an
// unthrottled scan is CPU-bound, with the ICMP rate limit left on.
func fastRTT(p *netsim.Params) {
	p.BaseRTT = 100 * time.Microsecond
	p.PerHopRTT = 0
	p.JitterRTT = 200 * time.Microsecond
}

// denseNet is the fast net with every router, block and host answering and
// no rate limit: one reply per probe. Region and provider paths are pinned
// to the middle of their default length ranges: with every hop recorded,
// bytes per target would otherwise follow each seed's mean route length
// (a 10% spread across seeds) and not the store's layout.
func denseNet(p *netsim.Params) {
	fastRTT(p)
	p.RegionHopsMin, p.RegionHopsMax = 4, 4
	p.ProviderHopsMin, p.ProviderHopsMax = 7, 7
	p.SilentRouterProb = 0
	p.SilentInteriorProb = 0
	p.RoutedFraction = 1
	p.OccupiedBlockProb = 1
	p.OccupiedDensityMin = 1
	p.OccupiedDensityMax = 1
	p.ICMPRateLimitPPS = 0
}

func fastRTT6(p *netsim6.Params) {
	p.BaseRTT = 100 * time.Microsecond
	p.PerHopRTT = 0
	p.JitterRTT = 200 * time.Microsecond
}

// scaledPPS is Scenario.ScaledPPS(100000): the paper's 100 Kpps scaled to
// the universe, which keeps per-interface probe rates the paper's.
func scaledPPS(blocks int) int {
	return (&experiments.Scenario{Blocks: blocks}).ScaledPPS(experiments.PaperPPS)
}

// v4Scan is one IPv4 single-engine workload: a simulated Internet, the
// engine knobs, and whether the routes are collected and emitted.
type v4Scan struct {
	mutate                    func(*netsim.Params) // nil: default netsim.Params
	virtual                   bool                 // virtual clock, paced at scaledPPS
	senders, receivers, batch int
	exhaustive, collect       bool
	// resultOnly charges live_bytes_per_target with the result alone. The
	// scanner still references the simulator's inbox, whose capacity
	// follows the receive backlog: where every probe is answered that is
	// megabytes, and differs from rep to rep.
	resultOnly bool
}

func (w v4Scan) run(rc *repCtx, blocks int) (*sample, error) {
	if rc.traced() {
		return w.traced(rc, blocks)
	}
	rt := beginRep()
	sim := flashroute.NewSimulation(flashroute.SimConfig{
		Blocks: blocks, Seed: rc.seed, RealTime: !w.virtual, Mutate: w.mutate,
	})
	cfg := flashroute.DefaultConfig()
	cfg.Blocks = sim.Blocks()
	cfg.Targets = sim.RandomTargets()
	cfg.BlockOf = sim.BlockOf
	cfg.Source = sim.Vantage()
	cfg.Seed = rc.seed
	cfg.Senders, cfg.Receivers, cfg.Batch = w.senders, w.receivers, w.batch
	cfg.Exhaustive, cfg.CollectRoutes = w.exhaustive, w.collect
	if w.virtual {
		cfg.PPS = scaledPPS(blocks)
	} else {
		cfg.Unthrottled = true
		cfg.DrainWait, cfg.MinRoundTime = fastDrainWait, fastMinRoundTime
	}
	sc, err := flashroute.NewScanner(cfg, sim.Conn(), sim.Clock())
	if err != nil {
		return nil, err
	}
	rt.setupDone()
	if rc.setupOnly {
		return rt.s, nil
	}
	res, err := sc.Run()
	if err != nil {
		return nil, err
	}
	rt.scanDone()
	var out countingWriter
	if w.collect {
		if err := res.WriteJSONL(&out); err != nil {
			return nil, err
		}
		rt.emitDone()
	}
	keep := []any{res}
	if !w.resultOnly {
		keep = append(keep, sc)
	}
	s := rt.finish(keep...)
	s.targets, s.virtual, s.emitBytes = blocks, w.virtual, out.n
	s.probes, s.interfaces, s.routes = res.Probes(), res.InterfaceCount(), res.NumRoutes()
	s.scanTime, s.rounds, s.interrupted = res.ScanTime(), res.Rounds(), res.Interrupted()
	s.sendErrors, s.readErrors, s.ckptErrors = res.SendErrors(), res.ReadErrors(), res.CheckpointErrors()
	s.sendRetries, s.duplicates, s.mismatched = res.SendRetries(), res.DuplicateResponses(), res.MismatchedResponses()
	return s, nil
}

// newNet4 builds the same simulated Internet NewSimulation would, for the
// traced reps that need the network's own handles.
func (w v4Scan) newNet4(seed int64, blocks int) (*netsim.Net, *experiments.Scenario, simclock.Waiter) {
	params := netsim.DefaultParams(seed)
	if w.mutate != nil {
		w.mutate(&params)
	}
	topo := netsim.NewTopology(netsim.NewSyntheticUniverse(blocks), params)
	var clock simclock.Waiter = simclock.NewReal()
	if w.virtual {
		clock = simclock.NewVirtual(time.Unix(0, 0))
	}
	return netsim.New(topo, clock), &experiments.Scenario{Blocks: blocks, Seed: seed, Topo: topo}, clock
}

// engineConfig is the core.Config equal to what run builds through the
// public API.
func (w v4Scan) engineConfig(sc *experiments.Scenario) core.Config {
	cfg := sc.FlashConfig() // defaults, universe, seed and the scaled rate
	cfg.Senders, cfg.Receivers, cfg.Batch = w.senders, w.receivers, w.batch
	cfg.Exhaustive, cfg.CollectRoutes = w.exhaustive, w.collect
	if !w.virtual {
		cfg.PPS = 0
		cfg.DrainWait, cfg.MinRoundTime = fastDrainWait, fastMinRoundTime
	}
	return cfg
}

func (w v4Scan) traced(rc *repCtx, blocks int) (*sample, error) {
	rt := beginRep()
	net, sc, clock := w.newNet4(rc.seed, blocks)
	conn := net.NewConn()
	s, err := runTraced(rc, rt, core.IPv4Family(), w.engineConfig(sc), conn,
		func() core.PacketReader { return conn.NewReader() }, clock)
	if err != nil {
		return nil, err
	}
	s.set("netsim.rate_limited_share", share(net.Stats.RateLimited.Load(), net.Stats.ProbesSent.Load()))
	return s, nil
}

func share(part, whole uint64) float64 { return float64(part) / float64(max(whole, 1)) }

// runTraced runs one engine over inner with every decorator on and fills
// the sample from the engine's own result.
func runTraced[A comparable](rc *repCtx, rt *repTimer, fam core.Family[A], cfg core.ConfigOf[A],
	inner core.PacketConn, newReader func() core.PacketReader, clock simclock.Waiter) (*sample, error) {
	scan := rc.rec.begin("scan", rc.rep, rc.trace)
	tr := newRepTrace(rc.rec, rc.trace, scan, cfg.DrainWait)
	conn := traceConn(inner, tr)
	if cfg.Receivers > 1 {
		cfg.NewReader = traceReaders(newReader, inner.(pendinger).Pending, tr)
	}
	cfg.StopSet = &tracedStopSet[A]{inner: core.NewLocalStopSet(fam, max(cfg.Receivers, 1), cfg.Blocks), t: tr}
	cfg.TraceSink = tracedSink[A]{tr}
	sc, err := core.NewScannerOf(fam, cfg, conn, tracedClock{clock, tr})
	if err != nil {
		return nil, err
	}
	rt.setupDone()
	rc.rec.restart(scan)
	res, err := sc.Run()
	rc.rec.end(scan)
	if err != nil {
		return nil, err
	}
	rt.scanDone()
	var out countingWriter
	if cfg.CollectRoutes {
		emit := rc.rec.begin("emit", rc.rep, rc.trace)
		err := res.Store.WriteJSONL(&out)
		rc.rec.end(emit)
		if err != nil {
			return nil, err
		}
		rt.emitDone()
	}
	s := rt.finish(sc, res)
	s.targets, s.emitBytes, s.tr = cfg.Blocks, out.n, tr
	fromEngine(s, res)
	if _, s.virtual = clock.(*simclock.Virtual); !s.virtual {
		// The inbox stays drainable after Close: Run outlasts the scan's own
		// clock by however long the receiver kept working.
		s.set("core.recv_backlog_s", (s.scan - s.scanTime).Seconds())
	}
	return s, nil
}

func fromEngine[A comparable](s *sample, res *core.ResultOf[A]) {
	s.probes, s.interfaces, s.routes = res.ProbesSent, res.Store.Interfaces().Len(), res.Store.NumRoutes()
	s.scanTime, s.rounds, s.interrupted = res.ScanTime, res.Rounds, res.Interrupted
	s.sendErrors, s.readErrors, s.ckptErrors = res.SendErrors, res.ReadErrors, res.CheckpointErrors
	s.sendRetries, s.duplicates, s.mismatched = res.SendRetries, res.DuplicateResponses, res.MismatchedResponses
	s.unparsed, s.storeBytes = res.UnparsedResponses, res.Store.MemoryBytes()
}

// runCluster is cluster-k2: Simulation.ScanCluster over the fast net. The
// traced form drives internal/cluster with traced vantage conns; the
// shared stop set is the coordinator's own, so it is read from the result,
// not wrapped.
func runCluster(workers int) func(rc *repCtx, blocks int) (*sample, error) {
	scan := v4Scan{mutate: fastRTT}
	return func(rc *repCtx, blocks int) (*sample, error) {
		rt := beginRep()
		var (
			s                   *sample
			published, received uint64
		)
		if rc.traced() {
			net, sc, clock := scan.newNet4(rc.seed, blocks)
			span := rc.rec.begin("scan", rc.rep, rc.trace)
			tr := newRepTrace(rc.rec, rc.trace, span, fastDrainWait)
			cfg := scan.engineConfig(sc)
			cfg.TraceSink = tracedSink[uint32]{tr}
			env := cluster.Env[uint32]{
				Fam: core.IPv4Family(), Base: cfg, Clock: tracedClock{clock, tr},
				NewConn: func(v int) (core.PacketConn, func() core.PacketReader, error) {
					return traceConn(net.NewVantageConn(v), tr), nil, nil
				},
			}
			rt.setupDone()
			rc.rec.restart(span)
			res, err := cluster.Scan(context.Background(), env, cluster.Options{Workers: workers})
			rc.rec.end(span)
			if err != nil {
				return nil, err
			}
			rt.scanDone()
			s = rt.finish(res)
			s.tr = tr
			s.probes, s.interfaces, s.routes = res.ProbesSent, res.Store.Interfaces().Len(), res.Store.NumRoutes()
			s.scanTime, s.interrupted, s.storeBytes = res.ScanTime, res.Interrupted, res.Store.MemoryBytes()
			published, received = res.StopPublished, res.StopReceived
			s.set("netsim.rate_limited_share", share(net.Stats.RateLimited.Load(), net.Stats.ProbesSent.Load()))
		} else {
			sim := flashroute.NewSimulation(flashroute.SimConfig{Blocks: blocks, Seed: rc.seed, RealTime: true, Mutate: fastRTT})
			cfg := flashroute.DefaultConfig()
			cfg.Seed = rc.seed
			cfg.Unthrottled = true
			cfg.DrainWait, cfg.MinRoundTime = fastDrainWait, fastMinRoundTime
			rt.setupDone()
			if rc.setupOnly {
				return rt.s, nil
			}
			res, err := sim.ScanCluster(cfg, flashroute.ClusterOptions{Workers: workers})
			if err != nil {
				return nil, err
			}
			rt.scanDone()
			s = rt.finish(res)
			s.probes, s.interfaces, s.routes = res.Probes(), res.InterfaceCount(), res.NumRoutes()
			s.scanTime, s.interrupted = res.ScanTime(), res.Interrupted()
			if n := len(res.Failures()) + len(res.Abandoned()); n > 0 {
				return nil, fmt.Errorf("cluster scan lost %d workers or shards", n)
			}
			published, received = res.StopPublished(), res.StopReceived()
		}
		s.targets = blocks
		s.set("cluster.stop_published", float64(published))
		s.set("cluster.stop_received", float64(received))
		s.set("cluster.merge_ms", float64(s.scan-s.scanTime)/1e6)
		return s, nil
	}
}

// runV6 is fr16-v6: the engine instantiated at IPv6 over netsim6, with the
// fast-net RTTs. targets is prefixes x 16.
func runV6(rc *repCtx, targets int) (*sample, error) {
	const perPrefix = 16
	prefixes := max(targets/perPrefix, 1)
	rt := beginRep()
	if rc.traced() {
		p := netsim6.DefaultParams(rc.seed)
		p.Prefixes, p.TargetsPerPrefix = prefixes, perPrefix
		fastRTT6(&p)
		topo := netsim6.NewTopology(p)
		clock := simclock.NewReal()
		net := netsim6.New(topo, clock)
		cfg := core6.DefaultConfig()
		cfg.Targets, cfg.Source, cfg.Seed = topo.Targets(), topo.Vantage(), rc.seed
		cfg.PPS = 0
		cfg.DrainWait, cfg.MinRoundTime = fastDrainWait, fastMinRoundTime
		ecfg, err := core6.EngineConfig(cfg)
		if err != nil {
			return nil, err
		}
		conn := net.NewConn()
		s, err := runTraced[probe6.Addr](rc, rt, core6.Family(), ecfg, conn,
			func() core.PacketReader { return conn.NewReader() }, clock)
		if err != nil {
			return nil, err
		}
		s.set("netsim.rate_limited_share", share(net.Stats.RateLimited.Load(), net.Stats.ProbesSent.Load()))
		return s, nil
	}
	sim := flashroute.NewSimulation6(flashroute.Sim6Config{
		Prefixes: prefixes, TargetsPerPrefix: perPrefix, Seed: rc.seed, RealTime: true, Mutate: fastRTT6,
	})
	rt.setupDone()
	if rc.setupOnly {
		return rt.s, nil
	}
	res, err := sim.Scan(flashroute.Config6{
		PPS:       -1, // unthrottled: Config6 has no flag for it, and 0 means the default rate
		Seed:      rc.seed,
		DrainWait: fastDrainWait, MinRoundTime: fastMinRoundTime,
	})
	if err != nil {
		return nil, err
	}
	rt.scanDone()
	s := rt.finish(res)
	s.targets = len(sim.Targets())
	s.probes, s.interfaces, s.scanTime, s.interrupted = res.Probes(), res.InterfaceCount(), res.ScanTime(), res.Interrupted()
	s.sendErrors, s.readErrors, s.ckptErrors = res.SendErrors(), res.ReadErrors(), res.CheckpointErrors()
	s.sendRetries, s.duplicates = res.SendRetries(), res.DuplicateResponses()
	return s, nil
}

// v4Micros is the isolated-measurement set of an IPv4 engine workload.
func v4Micros(mutate func(*netsim.Params), more func(o runOptions, ref *sample, out map[string]float64) error) func(runOptions, int, *sample, *sample) (map[string]float64, error) {
	return func(o runOptions, targets int, ref, last *sample) (map[string]float64, error) {
		out := microV4(o.quick, o.seed, targets, mutate, last.tr)
		out["permute.map_ns"] = microPermute(o.quick, targets, o.seed)
		if more != nil {
			if err := more(o, ref, out); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// workloads lists the seven workloads in the order they run and print.
func workloads() []*workload {
	return []*workload{
		{name: "fr16-inline", targets: 262144, quickTargets: 4096, ipv4: true, senders: 1, realClock: true, fastNet: true,
			run: v4Scan{mutate: fastRTT, senders: 1, receivers: 1}.run,
			micros: v4Micros(fastRTT, func(o runOptions, ref *sample, out map[string]float64) error {
				ns, err := microYarrp(o.seed, ref.targets)
				out["yarrp.ns_per_probe"] = ns
				return err
			})},
		{name: "fr16-sharded", targets: 262144, quickTargets: 4096, ipv4: true, senders: 2, realClock: true, fastNet: true,
			run:    v4Scan{mutate: fastRTT, senders: 2, receivers: 2, batch: 32}.run,
			micros: v4Micros(fastRTT, nil)},
		{name: "dense-exhaustive", targets: 65536, quickTargets: 2048, ipv4: true, senders: 1, realClock: true, fastNet: true, allAnswer: true,
			run:    v4Scan{mutate: denseNet, exhaustive: true, collect: true, resultOnly: true}.run,
			micros: v4Micros(denseNet, nil)},
		{name: "paced-virtual", targets: 262144, quickTargets: 4096, ipv4: true, senders: 1, identical: true,
			run:    v4Scan{virtual: true, collect: true}.run,
			micros: v4Micros(nil, nil)},
		{name: "served-jobs", targets: 16384, quickTargets: 1024, jobs: servedJobsPerRep, ipv4: true,
			run: runServed,
			micros: func(o runOptions, targets int, ref, last *sample) (map[string]float64, error) {
				return microSnapshot(o.seed, targets)
			}},
		{name: "cluster-k2", targets: 131072, quickTargets: 4096, ipv4: true, senders: 2, realClock: true, fastNet: true,
			run: runCluster(2),
			micros: v4Micros(fastRTT, func(o runOptions, ref *sample, out map[string]float64) error {
				for name, v := range microHub(o.quick) {
					out[name] = v
				}
				// The same universe through one worker: what K=2 is compared with.
				k1, err := runCluster(1)(&repCtx{seed: o.seed, quick: o.quick}, ref.targets)
				if err != nil {
					return err
				}
				out["cluster.k2_over_k1_rate"] = (float64(ref.probes) / ref.scan.Seconds()) / (float64(k1.probes) / k1.scan.Seconds())
				return nil
			})},
		{name: "fr16-v6", targets: 131072, quickTargets: 4096, senders: 1, realClock: true, fastNet: true,
			run: runV6,
			micros: func(o runOptions, targets int, ref, last *sample) (map[string]float64, error) {
				out := microV6(o.quick, last.tr)
				out["permute.map_ns"] = microPermute(o.quick, targets, o.seed)
				return out, nil
			}},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}
