package flashroute

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/cluster"
	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/netsim"
	"github.com/flashroute/flashroute/internal/simclock"
)

// This file is the chaos half of the cluster test suite (DESIGN.md §15):
// instead of killing workers by hand (TestClusterWorkerKillMigratesShard),
// these tests inject vantage-scoped transport fault windows and hub
// faults and assert the coordinator heals the scan on its own — the
// merged discovery must equal an undisturbed run, with the failure
// accounting (Failures, Migrations, StopSetDegraded) matching what was
// injected.

// clusterChaosSim is clusterGridSim plus a deterministic fault schedule:
// the same lockstep environment as the equivalence grid, so discovery
// equality against an undisturbed run is exact, with transport-fault
// windows layered on top (they draw nothing from the impairment RNG, so
// probing outside the windows is untouched).
func clusterChaosSim(seed int64, faults []FaultWindow) *Simulation {
	return NewSimulation(SimConfig{
		Blocks:   2048,
		Seed:     seed,
		Lockstep: true,
		Impair:   Impairments{Faults: faults},
		Mutate: func(p *netsim.Params) {
			p.DiamondProb = 0
			p.RegionDiamondProb = 0
			p.LoopStubProb = 0
			p.MiddleboxTTLResetProb = 0
			p.AddrRewriteStubProb = 0
			p.ApplianceProb = 0
			p.BalancedHopProb = 0
		},
	})
}

// chaosProbeTimes returns the issue times of every probe of an
// undisturbed K=3 grid scan on the virtual clock, sorted. Fault windows
// are placed at quantiles of it — "when the scan has done that share of
// its probing" — rather than at fractions of its duration: the workers
// start at the same instant and probe statistically identical shards in
// lockstep rounds, so at the q-quantile every worker still has about 1-q
// of its probes ahead of it, whereas the scan's last seconds belong to a
// handful of probes whose worker is decided by stop-set publication races.
func chaosProbeTimes(t *testing.T, seed int64) []time.Duration {
	t.Helper()
	cfg := clusterGridConfig()
	var ats []time.Duration
	cfg.Observer = func(_ uint32, _ uint8, at time.Duration) { ats = append(ats, at) }
	if _, err := clusterGridSim(seed).ScanCluster(cfg, ClusterOptions{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(ats)
	return ats
}

// TestClusterChaosFlapMigrates kills one of three workers by flapping
// its vantage link at 25/50/75% of the scan's probing — an open-ended outage the
// worker cannot outwait. The engine's send-error abort surfaces the
// dead transport with a final checkpoint, the coordinator migrates the
// shard to a surviving vantage with no manual intervention, and the
// merged discovery equals an undisturbed run.
func TestClusterChaosFlapMigrates(t *testing.T) {
	const seed = 5
	cfg := clusterGridConfig()
	base, err := clusterGridSim(seed).ScanCluster(cfg, ClusterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ats := chaosProbeTimes(t, seed)
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		start := ats[int(float64(len(ats))*frac)]
		sim := clusterChaosSim(seed, []FaultWindow{{
			Kind: FaultFlap, Start: start, Duration: time.Hour,
			Scoped: true, Vantage: 1,
		}})
		res, err := sim.ScanCluster(cfg, ClusterOptions{
			Workers: 3,
			// Abort on the first failed write: the outage is permanent, so
			// limping through it can only lose discovery.
			AbortOnSendErrors: 1,
		})
		if err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if res.Interrupted() {
			t.Fatalf("frac %v: healed scan reported Interrupted", frac)
		}
		if res.Migrations() != 1 {
			t.Fatalf("frac %v: Migrations = %d, want 1", frac, res.Migrations())
		}
		fails := res.Failures()
		if len(fails) != 1 {
			t.Fatalf("frac %v: Failures = %v, want exactly one", frac, fails)
		}
		if f := fails[0]; f.Shard != 1 || f.Vantage != 1 || f.Cause != ClusterCauseTransport {
			t.Errorf("frac %v: failure = %+v, want shard 1 vantage 1 cause transport", frac, f)
		}
		if ab := res.Abandoned(); len(ab) != 0 {
			t.Errorf("frac %v: abandoned shards %v, want none", frac, ab)
		}
		var resumed bool
		for _, w := range res.Workers() {
			if w.Resumed {
				resumed = true
				if w.Shard != 1 {
					t.Errorf("frac %v: resumed loop probed shard %d, want 1", frac, w.Shard)
				}
				if w.Vantage == 1 {
					t.Errorf("frac %v: resumed loop kept the flapped vantage", frac)
				}
			}
		}
		if !resumed {
			t.Fatalf("frac %v: no worker loop marked Resumed", frac)
		}
		sameAddrSet(t, "reached after auto-migration", reachedSetCluster(res), reachedSetCluster(base))
		sameAddrSet(t, "interfaces after auto-migration",
			deepInterfaces(res.ForEachRoute), deepInterfaces(base.ForEachRoute))
	}
}

// TestClusterChaosWatchdogStall exercises the other detection path: with
// the send-error abort disabled, a flapped worker makes no progress on
// either its probe counter or its reply stream, the progress watchdog
// declares it stalled, and the shard migrates just the same.
func TestClusterChaosWatchdogStall(t *testing.T) {
	const seed = 5
	cfg := clusterGridConfig()
	base, err := clusterGridSim(seed).ScanCluster(cfg, ClusterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ats := chaosProbeTimes(t, seed)
	sim := clusterChaosSim(seed, []FaultWindow{{
		Kind: FaultFlap, Start: ats[len(ats)/2], Duration: time.Hour,
		Scoped: true, Vantage: 1,
	}})
	res, err := sim.ScanCluster(cfg, ClusterOptions{
		Workers:           3,
		WatchdogTimeout:   2 * time.Second,
		AbortOnSendErrors: -1, // stall detection must carry the test alone
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted() {
		t.Fatal("healed scan reported Interrupted")
	}
	if res.Migrations() < 1 {
		t.Fatalf("Migrations = %d, want >= 1", res.Migrations())
	}
	fails := res.Failures()
	if len(fails) == 0 {
		t.Fatal("no worker failures recorded")
	}
	if f := fails[0]; f.Shard != 1 || f.Vantage != 1 || f.Cause != ClusterCauseStall {
		t.Errorf("first failure = %+v, want shard 1 vantage 1 cause stall", f)
	}
	if ab := res.Abandoned(); len(ab) != 0 {
		t.Errorf("abandoned shards %v, want none", ab)
	}
	sameAddrSet(t, "reached after watchdog migration", reachedSetCluster(res), reachedSetCluster(base))
	sameAddrSet(t, "interfaces after watchdog migration",
		deepInterfaces(res.ForEachRoute), deepInterfaces(base.ForEachRoute))
}

// slowStartConn is a transport whose first write takes delay of clock
// time: a worker loop that wedges before its first probe is out.
type slowStartConn struct {
	core.PacketConn
	clock   simclock.Waiter
	delay   time.Duration
	started bool
}

func (c *slowStartConn) WritePacket(pkt []byte) error {
	if !c.started {
		c.started = true
		c.clock.Sleep(c.delay)
	}
	return c.PacketConn.WritePacket(pkt)
}

// TestClusterWatchdogTimesFromRegistration pins when the watchdog starts
// timing a loop: at its sender's registration on the clock, not at its
// first probe. Vantage 1's transport wedges on the very first write and
// is healthy afterwards, so only a watchdog that already times the loop
// during that write ever sees a stall.
func TestClusterWatchdogTimesFromRegistration(t *testing.T) {
	const seed = 5
	cfg := clusterGridConfig()
	base, err := clusterGridSim(seed).ScanCluster(cfg, ClusterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim := clusterGridSim(seed)
	sim.fill(&cfg)
	var wedged bool
	env := cluster.Env[uint32]{
		Fam:   core.IPv4Family(),
		Base:  cfg.toCore(),
		Clock: sim.clock,
		NewConn: func(v int) (core.PacketConn, func() core.PacketReader, error) {
			c := core.PacketConn(sim.net.NewVantageConn(v))
			if v == 1 && !wedged {
				wedged = true
				c = &slowStartConn{PacketConn: c, clock: sim.clock, delay: 10 * time.Second}
			}
			return c, nil, nil
		},
	}
	inner, err := cluster.Scan(context.Background(), env, cluster.Options{
		Workers:         3,
		WatchdogTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := &ClusterResult{inner: inner}
	if res.Interrupted() {
		t.Fatal("healed scan reported Interrupted")
	}
	fails := res.Failures()
	if len(fails) != 1 || res.Migrations() != 1 {
		t.Fatalf("Failures = %v, Migrations = %d, want one stall and one migration", fails, res.Migrations())
	}
	if f := fails[0]; f.Shard != 1 || f.Vantage != 1 || f.Cause != ClusterCauseStall {
		t.Errorf("failure = %+v, want shard 1 vantage 1 cause stall", f)
	}
	sameAddrSet(t, "reached after watchdog migration", reachedSetCluster(res), reachedSetCluster(base))
	sameAddrSet(t, "interfaces after watchdog migration",
		deepInterfaces(res.ForEachRoute), deepInterfaces(base.ForEachRoute))
}

// TestClusterHubDegradationRecovers injects publish/drain failures into
// the stop-set hub for one worker mid-scan. The worker must degrade to
// local-only Doubletree mode (counted in StopSetDegraded), recover with
// a catch-up drain once the hub heals, and — because remote stop-set
// entries only ever suppress redundant probing — the merged discovery
// must still equal an undisturbed run, with no migrations at all.
func TestClusterHubDegradationRecovers(t *testing.T) {
	const seed = 5
	cfg := clusterGridConfig()
	base, err := clusterGridSim(seed).ScanCluster(cfg, ClusterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ops atomic.Uint64
	hubDown := errors.New("injected hub outage")
	res, err := clusterGridSim(seed).ScanCluster(cfg, ClusterOptions{
		Workers: 3,
		HubFaultHook: func(op string, worker int) error {
			if worker != 0 {
				return nil
			}
			// Worker 0 loses the hub for a window of its own hub
			// operations: long enough to straddle several publish batches,
			// with traffic on both sides.
			if n := ops.Add(1); n >= 3 && n < 40 {
				return hubDown
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted() {
		t.Fatal("degraded scan reported Interrupted")
	}
	if res.StopSetDegraded() == 0 {
		t.Fatal("StopSetDegraded = 0, want at least one degradation episode")
	}
	if res.Migrations() != 0 || len(res.Failures()) != 0 {
		t.Errorf("hub degradation caused worker failures: migrations=%d failures=%v",
			res.Migrations(), res.Failures())
	}
	if res.StopPublished() == 0 {
		t.Error("no stop-set entries published despite recovery")
	}
	sameAddrSet(t, "reached under hub degradation", reachedSetCluster(res), reachedSetCluster(base))
	sameAddrSet(t, "interfaces under hub degradation",
		deepInterfaces(res.ForEachRoute), deepInterfaces(base.ForEachRoute))
}

// TestClusterSetRateKillRace is the race pin for the coordinator's
// control surface: SetRate retargets and KillWorker fire concurrently
// with in-flight migrations (run under -race in CI). The rate must
// stick to relaunched loops, a kill landing on an already-finished or
// already-migrating loop must be a clean no-op, and the merged
// discovery still equals an undisturbed run.
func TestClusterSetRateKillRace(t *testing.T) {
	const seed = 5
	cfg := clusterGridConfig()
	base, err := clusterGridSim(seed).ScanCluster(cfg, ClusterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	var hptr atomic.Pointer[ClusterHandle]
	var probes atomic.Uint64
	cfg.Observer = func(dst uint32, ttl uint8, _ time.Duration) {
		h := hptr.Load()
		if h == nil {
			return
		}
		switch n := probes.Add(1); {
		case n == 400:
			h.KillWorker(1)
		case n == 401:
			// Immediately racing the in-flight migration of shard 1:
			// retarget the rate (must propagate to the relaunched loop) and
			// fire a redundant kill (must not double-migrate).
			h.SetRate(40_000)
			h.KillWorker(1)
		case n == 900:
			h.KillWorker(2)
			h.SetRate(120_000)
		case n%250 == 0:
			h.SetRate(60_000 + int(n))
		}
	}
	h, err := clusterGridSim(seed).StartClusterScan(context.Background(), cfg,
		ClusterOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	hptr.Store(h)
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted() {
		t.Fatal("scan reported Interrupted")
	}
	if res.Migrations() < 1 {
		t.Fatalf("Migrations = %d, want >= 1", res.Migrations())
	}
	for _, f := range res.Failures() {
		if f.Cause != ClusterCauseKill {
			t.Errorf("failure %+v: cause %s, want kill", f, f.Cause)
		}
	}
	sameAddrSet(t, "reached under control races", reachedSetCluster(res), reachedSetCluster(base))
	sameAddrSet(t, "interfaces under control races",
		deepInterfaces(res.ForEachRoute), deepInterfaces(base.ForEachRoute))
}
