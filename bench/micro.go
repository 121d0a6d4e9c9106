package main

import (
	"io"
	"os"
	"runtime"
	"time"

	flashroute "github.com/flashroute/flashroute"
	"github.com/flashroute/flashroute/internal/cluster"
	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/experiments"
	"github.com/flashroute/flashroute/internal/netsim"
	"github.com/flashroute/flashroute/internal/permute"
	"github.com/flashroute/flashroute/internal/probe"
	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/served"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/trace"
	"github.com/flashroute/flashroute/internal/yarrp"
)

// The isolated measurements: one layer's exported function, called in a
// loop on inputs captured from the workload's own traced rep. They run in
// the traced phase only. Each is the median of five batches, a batch sized
// to last at least 10 ms (2 ms with -quick).

var microSink uint64 // keeps measured calls from being optimized away

// nsPerOp times fn(n), which must perform n operations, and returns ns per
// operation.
func nsPerOp(quick bool, fn func(n int)) float64 {
	floor := 10 * time.Millisecond
	if quick {
		floor = 2 * time.Millisecond
	}
	n := 256
	for {
		t0 := time.Now()
		fn(n)
		if time.Since(t0) >= floor || n >= 1<<24 {
			break
		}
		n *= 4
	}
	var per []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

func microPermute(quick bool, size int, seed int64) float64 {
	p := permute.NewFeistel(uint64(size), uint64(seed))
	return nsPerOp(quick, func(n int) {
		for i := 0; i < n; i++ {
			microSink += p.Map(uint64(i % size))
		}
	})
}

// probe4 is one captured IPv4 probe reduced to what the layers key on.
type probe4 struct {
	dst  uint32
	ttl  uint8
	flow uint32
}

func parseProbes4(pkts [][]byte) []probe4 {
	var out []probe4
	for _, p := range pkts {
		var h probe.IPv4
		if h.Unmarshal(p) != nil || len(p) < probe.IPv4HeaderLen+4 || h.TTL < 1 || h.TTL > probe.MaxTTL {
			continue
		}
		// The simulator hashes the 5-tuple into the load-balancer flow; the
		// ports are the only part that varies with the destination.
		ports := uint32(p[probe.IPv4HeaderLen])<<24 | uint32(p[probe.IPv4HeaderLen+1])<<16 |
			uint32(p[probe.IPv4HeaderLen+2])<<8 | uint32(p[probe.IPv4HeaderLen+3])
		out = append(out, probe4{dst: h.Dst, ttl: h.TTL, flow: (h.Dst ^ ports) * 2654435761})
	}
	return out
}

// microV4 measures the IPv4 layers on the traced rep's packet mix. mutate
// is the workload's network; the write+drain cycle always runs with the
// fast RTTs on a real clock, so it times the simulator and not a wait.
func microV4(quick bool, seed int64, blocks int, mutate func(*netsim.Params), tr *repTrace) map[string]float64 {
	out := make(map[string]float64)
	probes := parseProbes4(compact(tr.probes))
	replies := compact(tr.replies)
	if len(probes) == 0 {
		return out
	}
	var buf [160]byte
	src := uint32(0x0a000001)
	build := func(n int) {
		for i := 0; i < n; i++ {
			p := probes[i%len(probes)]
			microSink += uint64(probe.BuildFlashProbe(buf[:], src, p.dst, p.ttl, false,
				time.Duration(i)*time.Microsecond, 0, probe.TracerouteDstPort))
		}
	}
	out["probe.build_ns"] = nsPerOp(quick, build)
	parse := func(n int) {
		for i := 0; i < n; i++ {
			resp, err := probe.ParseResponse(replies[i%len(replies)])
			if err != nil {
				continue
			}
			if fi, err := probe.ParseFlashQuote(&resp.ICMP); err == nil {
				microSink += uint64(fi.InitTTL)
			}
		}
	}
	if len(replies) > 0 {
		out["probe.parse_ns"] = nsPerOp(quick, parse)
		const n = 20000
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		build(n)
		parse(n)
		runtime.ReadMemStats(&m1)
		out["probe.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / (2 * n)
	}

	params := netsim.DefaultParams(seed)
	if mutate != nil {
		mutate(&params)
	}
	fastRTT(&params)
	topo := netsim.NewTopology(netsim.NewSyntheticUniverse(blocks), params)
	out["netsim.resolve_ns"] = nsPerOp(quick, func(n int) {
		for i := 0; i < n; i++ {
			p := probes[i%len(probes)]
			microSink += uint64(topo.Resolve(p.dst, p.ttl, p.flow, 0, probe.ProtoUDP).Addr)
		}
	})
	pkts := compact(tr.probes)
	out["netsim.cycle_ns_b1"] = cycleNs(topo, pkts, 1)
	out["netsim.cycle_ns_b32"] = cycleNs(topo, pkts, 32)

	// Stop-set lookups on the interfaces the rep's replies came from.
	var hopAddrs []uint32
	for _, r := range replies {
		if resp, err := probe.ParseResponse(r); err == nil {
			hopAddrs = append(hopAddrs, resp.Hop)
		}
	}
	if len(hopAddrs) > 0 {
		set := core.NewLocalStopSet(core.IPv4Family(), 1, len(hopAddrs))
		for i, a := range hopAddrs {
			if i%2 == 0 {
				set.Add(a)
			}
		}
		out["core.stopset_has_isolated_ns"] = nsPerOp(quick, func(n int) {
			for i := 0; i < n; i++ {
				if set.Has(hopAddrs[i%len(hopAddrs)]) {
					microSink++
				}
			}
		})
		out["trace.add_hop_ns"] = microAddHop(quick, hopAddrs)
	}
	return out
}

// cycleNs writes pkts through a fresh conn batch at a time, lets the last
// round trip pass untimed, and drains every response the same way: ns per
// packet written.
func cycleNs(topo *netsim.Topology, pkts [][]byte, batch int) float64 {
	var per []float64
	for rep := 0; rep < 3; rep++ {
		conn := netsim.New(topo, simclock.NewReal()).NewConn()
		bufs, sizes := make([][]byte, batch), make([]int, batch)
		for i := range bufs {
			bufs[i] = make([]byte, netsim.MaxResponseLen)
		}
		t0 := time.Now()
		if batch == 1 {
			for _, p := range pkts {
				_ = conn.WritePacket(p) // a fresh conn on a fault-free net cannot fail
			}
		} else {
			for i := 0; i < len(pkts); i += batch {
				_, _ = conn.WriteBatch(pkts[i:min(i+batch, len(pkts))])
			}
		}
		busy := time.Since(t0)
		conn.Close()
		time.Sleep(time.Millisecond) // longer than the fast net's largest RTT
		t0 = time.Now()
		for {
			var err error
			if batch == 1 {
				_, err = conn.ReadPacket(bufs[0])
			} else {
				_, err = conn.ReadBatch(bufs, sizes)
			}
			if err == io.EOF {
				break
			}
		}
		busy += time.Since(t0)
		per = append(per, float64(busy)/float64(len(pkts)))
	}
	return median(per)
}

// microAddHop fills a slot store the way the receive path does: 16 hops
// per route, addresses drawn from the rep's responders.
func microAddHop(quick bool, addrs []uint32) float64 {
	fam := core.IPv4Family()
	return nsPerOp(quick, func(n int) {
		slots := n/16 + 1
		st := trace.NewSlotStoreOf[uint32](true, fam.FormatAddr, fam.AddrLess, fam.HashAddr, slots, slots/2)
		for i := 0; i < n; i++ {
			st.AddHopAt(i/16, uint32(i/16)<<8|1, uint8(i%16)+1, addrs[i%len(addrs)], time.Millisecond)
		}
		microSink += uint64(st.NumRoutes())
	})
}

// microV6 measures probe6 on the traced rep's packets.
func microV6(quick bool, tr *repTrace) map[string]float64 {
	out := make(map[string]float64)
	type probe6d struct {
		dst probe6.Addr
		hl  uint8
	}
	var probes []probe6d
	for _, p := range compact(tr.probes) {
		var h probe6.Header
		if h.Unmarshal(p) == nil && h.HopLimit >= 1 && h.HopLimit <= probe6.MaxHopLimit {
			probes = append(probes, probe6d{h.Dst, h.HopLimit})
		}
	}
	replies := compact(tr.replies)
	if len(probes) == 0 || len(replies) == 0 {
		return out
	}
	var buf [160]byte
	var src probe6.Addr
	src[0], src[15] = 0x20, 1
	out["probe6.build_ns"] = nsPerOp(quick, func(n int) {
		for i := 0; i < n; i++ {
			p := probes[i%len(probes)]
			microSink += uint64(probe6.BuildProbe(buf[:], src, p.dst, p.hl, false,
				time.Duration(i)*time.Microsecond, 0, probe.TracerouteDstPort))
		}
	})
	out["probe6.parse_ns"] = nsPerOp(quick, func(n int) {
		for i := 0; i < n; i++ {
			resp, err := probe6.ParseResponse(replies[i%len(replies)])
			if err != nil {
				continue
			}
			if fi, err := probe6.ParseQuote(&resp.ICMP); err == nil {
				microSink += uint64(fi.InitHopLimit)
			}
		}
	})
	return out
}

// microHub measures the cluster stop set's two paths in isolation: a
// lookup that hits the worker's own tier, and one worker publishing an
// interface that a peer then adopts from the merge log.
func microHub(quick bool) map[string]float64 {
	fam := core.IPv4Family()
	local := func() core.StopSet[uint32] { return core.NewLocalStopSet(fam, 1, 1024) }
	ws := cluster.NewWorkerSet(cluster.NewHub[uint32](), 0, local(), 0)
	for i := uint32(0); i < 1024; i++ {
		ws.Add(i)
	}
	out := make(map[string]float64)
	out["cluster.hub_local_hit_ns"] = nsPerOp(quick, func(n int) {
		for i := 0; i < n; i++ {
			if ws.Has(uint32(i) & 1023) {
				microSink++
			}
		}
	})
	next := uint32(1 << 20)
	out["cluster.hub_publish_adopt_ns"] = nsPerOp(quick, func(n int) {
		hub := cluster.NewHub[uint32]()
		pub := cluster.NewWorkerSet(hub, 0, local(), 0)
		sub := cluster.NewWorkerSet(hub, 1, local(), 0)
		for i := 0; i < n; i++ {
			pub.Add(next)
			if i&63 == 63 { // one full publication batch: the peer drains it
				if sub.Has(next) {
					microSink++
				}
			}
			next++
		}
	})
	return out
}

// microYarrp is the stateless control: internal/yarrp's Yarrp-32 over the
// same fast net. Its ns per probe bounds what the simulator alone costs a
// sender, which core.self_ns_per_probe is read against.
func microYarrp(seed int64, blocks int) (float64, error) {
	params := netsim.DefaultParams(seed)
	fastRTT(&params)
	topo := netsim.NewTopology(netsim.NewSyntheticUniverse(blocks), params)
	sc := &experiments.Scenario{Blocks: blocks, Seed: seed, Topo: topo}
	clock := simclock.NewReal()
	cfg := yarrp.DefaultConfig()
	cfg.Blocks, cfg.Seed, cfg.Source = blocks, seed, topo.Vantage()
	cfg.Targets, cfg.BlockOf = sc.RandomTargets(), sc.BlockOf()
	cfg.PPS = 0
	cfg.DrainWait = fastDrainWait
	y, err := yarrp.NewScanner(cfg, netsim.New(topo, clock).NewConn(), clock)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	res, err := y.Run()
	if err != nil {
		return 0, err
	}
	return float64(time.Since(t0)) / float64(res.ProbesSent), nil
}

// microSnapshot prices checkpointing for one served-jobs spec: the same
// library scan with the daemon's own sink (Store.PutCheckpoint) at the
// daemon's default cadence and without, and core.ResumeScanner on a
// mid-scan snapshot.
func microSnapshot(seed int64, blocks int) (map[string]float64, error) {
	tmp, err := scratchRoot()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "snapshot-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := served.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	spec := servedSpec(seed, blocks)
	var (
		with, without []float64
		snaps         [][]byte
		count, size   int
	)
	scan := func(checkpoint bool) (float64, error) {
		sim, err := flashroute.NewSimulationCIDRs(spec.SimConfig())
		if err != nil {
			return 0, err
		}
		cfg := spec.ScanConfig()
		if checkpoint {
			snaps, count, size = snaps[:0], 0, 0
			cfg.CheckpointEvery = 10_000 // served.Config.CheckpointEvery's default
			cfg.CheckpointSink = func(snap []byte) error {
				count++
				size += len(snap)
				snaps = append(snaps, append([]byte(nil), snap...))
				return store.PutCheckpoint("bench", snap)
			}
		}
		t0 := time.Now()
		res, err := sim.Scan(cfg)
		if err != nil {
			return 0, err
		}
		_ = res
		return time.Since(t0).Seconds(), nil
	}
	for i := 0; i < 3; i++ {
		for _, on := range []bool{true, false} {
			d, err := scan(on)
			if err != nil {
				return nil, err
			}
			if on {
				with = append(with, d)
			} else {
				without = append(without, d)
			}
		}
	}
	out := map[string]float64{
		"snapshot.checkpoints":            float64(count),
		"snapshot.bytes_per_checkpoint":   float64(size) / float64(max(count, 1)),
		"snapshot.cost_ms_per_checkpoint": (median(with) - median(without)) * 1e3 / float64(max(count, 1)),
	}
	if len(snaps) > 1 { // the last one records the completed scan and cannot be resumed
		mid := snaps[(len(snaps)-1)/2]
		var resume []float64
		for i := 0; i < 5; i++ {
			sim, err := flashroute.NewSimulationCIDRs(spec.SimConfig())
			if err != nil {
				return nil, err
			}
			cfg := spec.ScanConfig()
			cfg.Blocks, cfg.Targets, cfg.BlockOf, cfg.Source = sim.Blocks(), sim.RandomTargets(), sim.BlockOf, sim.Vantage()
			t0 := time.Now()
			if _, err := flashroute.ResumeScanner(cfg, sim.Conn(), sim.Clock(), mid); err != nil {
				return nil, err
			}
			resume = append(resume, float64(time.Since(t0))/1e6)
		}
		out["snapshot.resume_ms"] = median(resume)
	}
	return out, nil
}
