package flashroute

import (
	"context"
	"time"

	"github.com/flashroute/flashroute/internal/cluster"
	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/core6"
)

// ClusterOptions parameterizes a distributed multi-vantage scan (see
// DESIGN.md §13): the destination universe is carved into Workers
// contiguous shards of the probing permutation, each driven by its own
// engine instance probing from its own vantage, all sharing one global
// stop set so one worker's discoveries suppress another's redundant
// backward probing.
type ClusterOptions struct {
	// Workers is the worker/shard/vantage count K. <= 1 means one
	// worker, which is bit-identical to the corresponding plain scan.
	Workers int
	// Independent detaches the workers' stop sets from each other: K
	// genuinely independent scans over the same shards — the baseline
	// the probe-savings experiment (frexperiments -exp C2) compares
	// against.
	Independent bool

	// WatchdogTimeout arms the coordinator's per-worker progress
	// watchdog (DESIGN.md §15): a worker whose probe counter AND reply
	// stream both stall for this long is declared failed and its shard
	// is migrated from its final checkpoint. Zero disables the watchdog
	// entirely (the default — with it disabled and no faults injected,
	// every self-healing path is inert and results are bit-identical to
	// a supervisor-free scan). When armed, the reported ScanTime may
	// include up to one trailing watchdog tick on the virtual clock.
	WatchdogTimeout time.Duration

	// MaxMigrations bounds how many times any one shard may be handed
	// off to a surviving peer before the coordinator abandons it
	// (recorded in ClusterResult.Abandoned; the merge stays a valid
	// partial result). 0 means the default budget (3); negative
	// disables migration, so a failed shard is abandoned immediately.
	MaxMigrations int

	// AbortOnSendErrors makes each worker's engine abort (with a final
	// checkpoint, so the shard can migrate) once this many probe writes
	// have failed in its current run. 0 picks a small default when
	// WatchdogTimeout is set and leaves the engine's prior
	// keep-scanning behavior otherwise; negative disables the abort.
	AbortOnSendErrors int

	// CheckpointSink, when set, receives every worker's periodic
	// engine checkpoint keyed by shard (taken every CheckpointEvery
	// probes). This is how frserved persists per-shard progress so a
	// daemon restart can resume a cluster job via ResumeSnapshots. The
	// sink is called from worker goroutines; it must be safe for
	// concurrent use.
	CheckpointSink func(shard int, snapshot []byte) error
	// CheckpointEvery is the per-worker probe interval between
	// CheckpointSink calls (only meaningful with a sink; <= 0 leaves
	// the engine default).
	CheckpointEvery int
	// ResumeSnapshots maps shard index -> engine checkpoint to resume
	// from (as previously delivered to CheckpointSink). Listed shards
	// restart from their snapshot; absent shards start fresh.
	ResumeSnapshots map[int][]byte

	// HubFaultHook injects publish/drain failures into the shared
	// stop-set hub (ops "publish" and "drain", per worker) to exercise
	// degraded local-only Doubletree mode. Test injection only.
	HubFaultHook func(op string, worker int) error
}

// clusterOpts lowers the public options onto the coordinator's.
func (opt ClusterOptions) lower() cluster.Options {
	return cluster.Options{
		Workers:           opt.Workers,
		Independent:       opt.Independent,
		WatchdogTimeout:   opt.WatchdogTimeout,
		MaxMigrations:     opt.MaxMigrations,
		AbortOnSendErrors: opt.AbortOnSendErrors,
		CheckpointSink:    opt.CheckpointSink,
		CheckpointEvery:   opt.CheckpointEvery,
		ResumeSnapshots:   opt.ResumeSnapshots,
		HubFaultHook:      opt.HubFaultHook,
	}
}

// ClusterWorkerFailure records one worker-loop failure the coordinator
// detected and handled (see ClusterResult.Failures).
type ClusterWorkerFailure = cluster.WorkerFailure

// ClusterFailureCause classifies a worker failure: "kill" (explicit
// KillWorker), "stall" (watchdog), "transport" (engine aborted on send
// errors), "launch" (a migration attempt itself failed to start).
type ClusterFailureCause = cluster.FailureCause

// Failure causes, re-exported for switch statements.
const (
	ClusterCauseKill      = cluster.CauseKill
	ClusterCauseStall     = cluster.CauseStall
	ClusterCauseTransport = cluster.CauseTransport
	ClusterCauseLaunch    = cluster.CauseLaunch
)

// ClusterWorkerStats describes one worker loop of a finished cluster
// scan.
type ClusterWorkerStats = cluster.WorkerStats

// ClusterMultiPath is a multi-path observation surfaced by the IPv4
// merge: two probing contexts saw different interfaces at the same
// (destination, TTL).
type ClusterMultiPath = cluster.MultiPath[uint32]

// ClusterMultiPath6 is ClusterMultiPath for IPv6 scans.
type ClusterMultiPath6 = cluster.MultiPath[Addr6]

// ClusterResultOf is the merged outcome of a cluster scan of either
// address family (ClusterResult for IPv4, ClusterResult6 for IPv6): the
// conflict-aware union of every worker's traces plus per-worker and
// stop-set-exchange statistics.
type ClusterResultOf[A comparable] struct {
	routes[A]
	inner *cluster.Result[A]
}

type (
	ClusterResult  = ClusterResultOf[uint32]
	ClusterResult6 = ClusterResultOf[Addr6]
)

func newClusterResult[A comparable](res *cluster.Result[A]) *ClusterResultOf[A] {
	return &ClusterResultOf[A]{routes: routes[A]{res.Store}, inner: res}
}

// Probes returns the total probe count across all workers.
func (r *ClusterResultOf[A]) Probes() uint64 { return r.inner.ProbesSent }

// PreprobeProbes returns the probes spent preprobing, summed across
// workers.
func (r *ClusterResultOf[A]) PreprobeProbes() uint64 { return r.inner.PreprobeProbes }

// ScanTime returns the wall (clock) duration of the whole cluster scan.
func (r *ClusterResultOf[A]) ScanTime() time.Duration { return r.inner.ScanTime }

// MultiPaths returns the merge's multi-path observations, sorted by
// (destination, TTL).
func (r *ClusterResultOf[A]) MultiPaths() []cluster.MultiPath[A] { return r.inner.MultiPaths }

// Workers returns per-worker-loop statistics (a migrated shard has one
// entry per attempt).
func (r *ClusterResultOf[A]) Workers() []ClusterWorkerStats { return r.inner.Workers }

// Migrations returns how many shard handoffs happened mid-scan.
func (r *ClusterResultOf[A]) Migrations() int { return r.inner.Migrations }

// Failures lists every worker failure the coordinator detected,
// in detection order (empty on an undisturbed scan).
func (r *ClusterResultOf[A]) Failures() []ClusterWorkerFailure { return r.inner.Failures }

// Abandoned lists shards (sorted) whose migration budget ran out; their
// remaining destinations went unprobed and the merge is a valid partial
// result.
func (r *ClusterResultOf[A]) Abandoned() []int { return r.inner.Abandoned }

// StopSetDegraded counts degradation episodes: how many times a worker
// lost the shared stop-set hub and fell back to local-only Doubletree
// mode (zero on an undisturbed scan).
func (r *ClusterResultOf[A]) StopSetDegraded() uint64 { return r.inner.StopSetDegraded }

// StopPublished and StopReceived report the global stop-set exchange:
// entries published to the merge log, and remote entries adopted by
// workers (both zero when ClusterOptions.Independent).
func (r *ClusterResultOf[A]) StopPublished() uint64 { return r.inner.StopPublished }
func (r *ClusterResultOf[A]) StopReceived() uint64  { return r.inner.StopReceived }

// Interrupted reports the scan was cancelled; the result is the valid
// partial merge.
func (r *ClusterResultOf[A]) Interrupted() bool { return r.inner.Interrupted }

// ClusterHandleOf is a running cluster scan of either address family
// (StartClusterScan): poll Probes, retarget the rate with SetRate, Cancel
// for a graceful partial merge, KillWorker to exercise shard migration,
// Wait for completion.
type ClusterHandleOf[A comparable] struct {
	run *cluster.Run[A]
}

type (
	ClusterHandle  = ClusterHandleOf[uint32]
	ClusterHandle6 = ClusterHandleOf[Addr6]
)

// Probes returns the live probe count summed across worker loops.
func (h *ClusterHandleOf[A]) Probes() uint64 { return h.run.Probes() }

// SetRate retargets the aggregate probing rate (split across workers).
func (h *ClusterHandleOf[A]) SetRate(pps int) { h.run.SetRate(pps) }

// Cancel requests graceful cancellation of every worker.
func (h *ClusterHandleOf[A]) Cancel() { h.run.Cancel() }

// KillWorker cancels the loop probing the given shard and migrates the
// shard's remaining work to a peer vantage via its final checkpoint.
// Reports whether a live loop was killed.
func (h *ClusterHandleOf[A]) KillWorker(shard int) bool { return h.run.KillWorker(shard) }

// Migrations returns the live count of completed shard handoffs.
func (h *ClusterHandleOf[A]) Migrations() int { return h.run.Migrations() }

// StopSetDegraded returns the live count of stop-set degradation
// episodes across workers.
func (h *ClusterHandleOf[A]) StopSetDegraded() uint64 { return h.run.StopSetDegraded() }

// Wait blocks until the cluster scan completes.
func (h *ClusterHandleOf[A]) Wait() (*ClusterResultOf[A], error) {
	res, err := h.run.Wait()
	if err != nil {
		return nil, err
	}
	return newClusterResult(res), nil
}

// startCluster starts the coordinator over env.
func startCluster[A comparable](ctx context.Context, env cluster.Env[A], opt ClusterOptions) (*ClusterHandleOf[A], error) {
	run, err := cluster.Start(ctx, env, opt.lower())
	if err != nil {
		return nil, err
	}
	return &ClusterHandleOf[A]{run: run}, nil
}

// StartClusterScan begins a distributed multi-vantage scan against this
// simulation. Each of the opt.Workers workers probes its contiguous
// shard of the probing permutation from its own vantage (distinct
// first-hop ingress), publishing stop-set discoveries to the shared
// merge log. With opt.Workers <= 1 the scan is bit-identical to
// StartScan over the same Config.
func (s *Simulation) StartClusterScan(ctx context.Context, cfg Config, opt ClusterOptions) (*ClusterHandle, error) {
	s.fill(&cfg)
	receivers := cfg.Receivers
	return startCluster(ctx, cluster.Env[uint32]{
		Fam:   core.IPv4Family(),
		Base:  cfg.toCore(),
		Clock: s.clock,
		NewConn: func(v int) (core.PacketConn, func() core.PacketReader, error) {
			c := s.net.NewVantageConn(v)
			var nr func() core.PacketReader
			if receivers > 1 {
				nr = func() core.PacketReader { return c.NewReader() }
			}
			return c, nr, nil
		},
	}, opt)
}

// ScanCluster is StartClusterScan + Wait: the blocking form.
func (s *Simulation) ScanCluster(cfg Config, opt ClusterOptions) (*ClusterResult, error) {
	return s.ScanClusterContext(context.Background(), cfg, opt)
}

// ScanClusterContext is ScanCluster with graceful cancellation.
func (s *Simulation) ScanClusterContext(ctx context.Context, cfg Config, opt ClusterOptions) (*ClusterResult, error) {
	h, err := s.StartClusterScan(ctx, cfg, opt)
	if err != nil {
		return nil, err
	}
	return h.Wait()
}

// StartClusterScan begins a distributed multi-vantage IPv6 scan; same
// contract as Simulation.StartClusterScan.
func (s *Simulation6) StartClusterScan(ctx context.Context, cfg Config6, opt ClusterOptions) (*ClusterHandle6, error) {
	ecfg, err := core6.EngineConfig(s.toConfig6(cfg))
	if err != nil {
		return nil, err
	}
	receivers := cfg.Receivers
	return startCluster(ctx, cluster.Env[Addr6]{
		Fam:   core6.Family(),
		Base:  ecfg,
		Clock: s.clock,
		NewConn: func(v int) (core.PacketConn, func() core.PacketReader, error) {
			c := s.net.NewVantageConn(v)
			var nr func() core.PacketReader
			if receivers > 1 {
				nr = func() core.PacketReader { return c.NewReader() }
			}
			return c, nr, nil
		},
	}, opt)
}

// ScanCluster is StartClusterScan + Wait for IPv6.
func (s *Simulation6) ScanCluster(cfg Config6, opt ClusterOptions) (*ClusterResult6, error) {
	return s.ScanClusterContext(context.Background(), cfg, opt)
}

// ScanClusterContext is ScanCluster with graceful cancellation.
func (s *Simulation6) ScanClusterContext(ctx context.Context, cfg Config6, opt ClusterOptions) (*ClusterResult6, error) {
	h, err := s.StartClusterScan(ctx, cfg, opt)
	if err != nil {
		return nil, err
	}
	return h.Wait()
}
