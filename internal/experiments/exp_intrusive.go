package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/metrics"
	"github.com/flashroute/flashroute/internal/scamper"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/trace"
	"github.com/flashroute/flashroute/internal/yarrp"
)

// TTLProfileResult carries Figure 7's data: per tool, how many targets had
// their route probed at each TTL.
type TTLProfileResult struct {
	FlashRoute metrics.TTLProfile
	Scamper    metrics.TTLProfile
}

// WriteText renders both series side by side.
func (r *TTLProfileResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "Figure 7: targets with routes probed at a given TTL\nttl\tflashroute16\tscamper16"); err != nil {
		return err
	}
	for ttl := 1; ttl <= 16; ttl++ {
		if _, err := fmt.Fprintf(w, "%d\t%d\t%d\n", ttl,
			r.FlashRoute.Counts[ttl], r.Scamper.Counts[ttl]); err != nil {
			return err
		}
	}
	return nil
}

// Figure7ProbedTTLDistribution reproduces Figure 7: the distribution of
// targets whose routes are explored at each TTL, for Scamper-16 and
// FlashRoute-16. FlashRoute's earlier, progressive termination of
// backward probing is the visible difference.
func Figure7ProbedTTLDistribution(s *Scenario) (*TTLProfileResult, error) {
	out := &TTLProfileResult{}

	cfg := s.FlashConfig()
	cfg.Preprobe = core.PreprobeHitlist
	cfg.PreprobeTargets = s.Hitlist().TargetFunc()
	cfg.Observer = func(dst uint32, ttl uint8, at time.Duration) {
		if ttl <= 16 {
			out.FlashRoute.Add(ttl)
		}
	}
	if _, err := s.RunFlash(cfg); err != nil {
		return nil, err
	}

	if _, err := s.runScamper(func(c *scamper.Config) {
		c.Observer = func(dst uint32, ttl uint8, at time.Duration) {
			if ttl <= 16 {
				out.Scamper.Add(ttl)
			}
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// OverprobeRow is one line of Table 4.
type OverprobeRow struct {
	Name                 string
	OverprobedInterfaces int
	DroppedProbes        uint64
}

// OverprobeResult carries Table 4.
type OverprobeResult struct {
	Rows []OverprobeRow
}

// WriteText renders the table.
func (r *OverprobeResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Table 4: interface overprobing (limit 500 ICMP/s per interface)\n%-28s %22s %16s\n",
		"tool", "overprobed interfaces", "dropped probes"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%-28s %22d %16d\n",
			row.Name, row.OverprobedInterfaces, row.DroppedProbes); err != nil {
			return err
		}
	}
	return nil
}

// Table4Overprobing reproduces §4.2.2 / Table 4: replay each tool's probe
// stream against the topology discovered by a 10 Kpps Scamper scan, and
// count interfaces receiving more than the ICMP rate limit in any
// one-second window, plus the probes a limiting router would not answer.
//
// Unlike the throughput experiments, the probing rate here is NOT scaled
// down with the universe: the ICMP rate limit is an absolute 500/s, so
// overprobing only manifests at the paper's real 100 Kpps. The scans are
// shorter instead.
func Table4Overprobing(s *Scenario) (*OverprobeResult, error) {
	// Reference topology. The paper maps probes through the routes a
	// 10 Kpps Scamper scan discovered; since Scamper's Doubletree probing
	// leaves per-destination holes below its convergence points, the
	// paper implicitly relies on route sharing to complete the picture.
	// Here the simulator's ground truth provides exactly that completed
	// reference: the responsive router each (destination, TTL) pair would
	// hit on its default Paris-UDP flow.
	mapper := func(dst uint32, ttl uint8) (uint32, bool) {
		return s.Topo.RouterAt(dst, ttl, 0)
	}
	limit := s.Topo.P.ICMPRateLimitPPS

	out := &OverprobeResult{}
	addFlash := func(name string, split uint8) error {
		o := metrics.NewOverprobe(limit, mapper)
		cfg := s.FlashConfig()
		cfg.PPS = PaperPPS
		cfg.SplitTTL = split
		cfg.Preprobe = core.PreprobeHitlist
		cfg.PreprobeTargets = s.Hitlist().TargetFunc()
		cfg.Observer = o.Observe
		if _, err := s.RunFlash(cfg); err != nil {
			return err
		}
		over, dropped := o.Result()
		out.Rows = append(out.Rows, OverprobeRow{name, over, dropped})
		return nil
	}
	if err := addFlash("FlashRoute-16", 16); err != nil {
		return nil, err
	}
	if err := addFlash("FlashRoute-32", 32); err != nil {
		return nil, err
	}

	addYarrp := func(name string, protection uint8) error {
		o := metrics.NewOverprobe(limit, mapper)
		cfg := s.yarrpConfig()
		cfg.PPS = PaperPPS
		cfg.NeighborhoodLimit = protection
		// The paper's 30 s protection timeout assumes an hour-long scan;
		// scale it to this universe's scan length so protection can
		// engage at all.
		cfg.NeighborhoodTimeout = 2 * time.Second
		cfg.Observer = o.Observe
		if _, err := s.runYarrp(cfg); err != nil {
			return err
		}
		over, dropped := o.Result()
		out.Rows = append(out.Rows, OverprobeRow{name, over, dropped})
		return nil
	}
	if err := addYarrp("Yarrp-32", 0); err != nil {
		return nil, err
	}
	if err := addYarrp("Yarrp-32 3-hop protection", 3); err != nil {
		return nil, err
	}
	if err := addYarrp("Yarrp-32 6-hop protection", 6); err != nil {
		return nil, err
	}
	return out, nil
}

// buildHopMapper indexes a route store into a (dst,ttl) -> interface map.
func buildHopMapper(st *trace.Store) metrics.HopMapper {
	idx := make(map[uint64]uint32)
	st.ForEachRoute(func(r *trace.Route) {
		for _, h := range r.Hops {
			idx[uint64(r.Dst)<<8|uint64(h.TTL)] = h.Addr
		}
	})
	return func(dst uint32, ttl uint8) (uint32, bool) {
		hop, ok := idx[uint64(dst)<<8|uint64(ttl)]
		return hop, ok
	}
}

// RateRow is one line of Table 5.
type RateRow struct {
	Name string
	// MeasuredKpps is the unthrottled probing rate this host sustains.
	MeasuredKpps float64
	// EstimatedFullScan extrapolates the time a paper-scale (11.1M-block)
	// scan would take at this rate with this tool's probe budget.
	EstimatedFullScan time.Duration
}

// RateResult carries Table 5.
type RateResult struct {
	Rows []RateRow
}

// WriteText renders the table.
func (r *RateResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Table 5: non-throttled scan speed\n%-16s %14s %24s\n",
		"tool", "speed (Kpps)", "est. paper-scale scan"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%-16s %14.1f %24s\n",
			row.Name, row.MeasuredKpps, metrics.FormatDuration(row.EstimatedFullScan)); err != nil {
			return err
		}
	}
	return nil
}

// Table5MaxRate reproduces §4.2.3 / Table 5: run each tool unthrottled on
// the real clock and measure the probing rate it sustains; the estimated
// full-scan time extrapolates to the paper's universe with each tool's
// per-block probe budget.
func Table5MaxRate(s *Scenario) (*RateResult, error) {
	out := &RateResult{}
	scale := float64(PaperBlocks) / float64(s.Blocks)

	runFlash := func(name string, split uint8) error {
		clock := simclock.NewReal()
		n := s.newFastNet(clock)
		cfg := s.FlashConfig()
		cfg.SplitTTL = split
		cfg.PPS = 0 // unthrottled
		cfg.MinRoundTime = time.Millisecond
		cfg.DrainWait = 100 * time.Millisecond
		sc, err := core.NewScanner(cfg, n.NewConn(), clock)
		if err != nil {
			return err
		}
		res, err := sc.Run()
		if err != nil {
			return err
		}
		rate := float64(res.ProbesSent) / res.ScanTime.Seconds()
		out.Rows = append(out.Rows, RateRow{
			Name:              name,
			MeasuredKpps:      rate / 1000,
			EstimatedFullScan: time.Duration(float64(res.ProbesSent) * scale / rate * float64(time.Second)),
		})
		return nil
	}
	if err := runFlash("FlashRoute-32", 32); err != nil {
		return nil, err
	}
	if err := runFlash("FlashRoute-16", 16); err != nil {
		return nil, err
	}

	runYarrpRate := func(name string, maxTTL uint8, fill bool) error {
		clock := simclock.NewReal()
		n := s.newFastNet(clock)
		cfg := s.yarrpConfig()
		cfg.MaxTTL = maxTTL
		cfg.FillMode = fill
		if fill {
			cfg.FillMax = 32
		}
		cfg.PPS = 0
		cfg.DrainWait = 100 * time.Millisecond
		sc, err := yarrp.NewScanner(cfg, n.NewConn(), clock)
		if err != nil {
			return err
		}
		res, err := sc.Run()
		if err != nil {
			return err
		}
		rate := float64(res.ProbesSent) / res.ScanTime.Seconds()
		out.Rows = append(out.Rows, RateRow{
			Name:              name,
			MeasuredKpps:      rate / 1000,
			EstimatedFullScan: time.Duration(float64(res.ProbesSent) * scale / rate * float64(time.Second)),
		})
		return nil
	}
	if err := runYarrpRate("Yarrp-32", 32, false); err != nil {
		return nil, err
	}
	if err := runYarrpRate("Yarrp-16", 16, true); err != nil {
		return nil, err
	}

	// The IPv6 instantiation of the same engine, over a candidate list
	// sized like this universe, closes the table: the generic core should
	// sustain a comparable CPU-bound rate regardless of address family.
	row6, err := MaxRate6(s.Blocks, s.Seed)
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, row6)
	return out, nil
}

// SenderRateRow is one sender-count measurement of SenderScaling.
type SenderRateRow struct {
	Senders      int
	MeasuredKpps float64
	// Interfaces discovered — the sanity check that parallelism does not
	// change the topology the scan sees, only how fast it sees it.
	Interfaces int
}

// SenderScaling measures the unthrottled probing rate the engine sustains
// at each sender-goroutine count, on the same near-zero-RTT network used
// by the Table 5 measurement so the numbers are CPU-bound and comparable
// to it. The paper's engine is single-sender (one sending thread, §3.2);
// this quantifies what the sharded multi-sender extension buys on hosts
// with spare cores.
func SenderScaling(s *Scenario, senders []int) ([]SenderRateRow, error) {
	var out []SenderRateRow
	for _, k := range senders {
		clock := simclock.NewReal()
		n := s.newFastNet(clock)
		cfg := s.FlashConfig()
		cfg.PPS = 0 // unthrottled
		cfg.Senders = k
		cfg.MinRoundTime = time.Millisecond
		cfg.DrainWait = 100 * time.Millisecond
		sc, err := core.NewScanner(cfg, n.NewConn(), clock)
		if err != nil {
			return nil, err
		}
		res, err := sc.Run()
		if err != nil {
			return nil, err
		}
		rate := float64(res.ProbesSent) / res.ScanTime.Seconds()
		out = append(out, SenderRateRow{
			Senders:      k,
			MeasuredKpps: rate / 1000,
			Interfaces:   res.Store.Interfaces().Len(),
		})
	}
	return out, nil
}

// ReceiverRateRow is one receiver-count measurement of ReceiverScaling.
type ReceiverRateRow struct {
	Receivers    int
	MeasuredKpps float64
	// Interfaces discovered — the sanity check that the receive pipeline
	// sees the same topology at every worker count.
	Interfaces int
}

// ReceiverScaling measures the unthrottled probing rate at each
// receiver-worker count with the sender count held fixed, on the same
// near-zero-RTT network as SenderScaling. The paper's engine has exactly
// one receiving thread (§3.2); this quantifies what parallel reply
// parsing with block-affinity dispatch buys once senders outrun a single
// receiver.
func ReceiverScaling(s *Scenario, senders int, receivers []int) ([]ReceiverRateRow, error) {
	var out []ReceiverRateRow
	for _, r := range receivers {
		clock := simclock.NewReal()
		n := s.newFastNet(clock)
		cfg := s.FlashConfig()
		cfg.PPS = 0 // unthrottled
		cfg.Senders = senders
		cfg.Receivers = r
		cfg.MinRoundTime = time.Millisecond
		cfg.DrainWait = 100 * time.Millisecond
		conn := n.NewConn()
		if r > 1 {
			cfg.NewReader = func() core.PacketReader { return conn.NewReader() }
		}
		sc, err := core.NewScanner(cfg, conn, clock)
		if err != nil {
			return nil, err
		}
		res, err := sc.Run()
		if err != nil {
			return nil, err
		}
		rate := float64(res.ProbesSent) / res.ScanTime.Seconds()
		out = append(out, ReceiverRateRow{
			Receivers:    r,
			MeasuredKpps: rate / 1000,
			Interfaces:   res.Store.Interfaces().Len(),
		})
	}
	return out, nil
}

// BatchRateRow is one batch-size measurement of BatchSweep.
type BatchRateRow struct {
	Batch        int
	MeasuredKpps float64
	// Interfaces discovered — the sanity check that the batched transport
	// still discovers a comparable topology (exact equivalence is proven
	// on the virtual clock by the core golden-grid tests; real-clock
	// unthrottled runs vary with timing like the other rate experiments).
	Interfaces int
}

// BatchSweepResult carries the batch-size sweep.
type BatchSweepResult struct {
	Rows []BatchRateRow
}

// WriteText renders the sweep.
func (r *BatchSweepResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Batch sweep: unthrottled scan rate vs packets per transport call\n%-8s %14s %12s\n",
		"batch", "measured kpps", "interfaces"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%-8d %14.1f %12d\n",
			row.Batch, row.MeasuredKpps, row.Interfaces); err != nil {
			return err
		}
	}
	return nil
}

// BatchSweep measures the unthrottled probing rate at each batch size on
// the near-zero-RTT Table 5 network — the end-to-end view of what the
// batched data path (arena-fed WriteBatch sends, ReadBatch receive
// workers) buys over one-transport-call-per-packet (batch 1).
func BatchSweep(s *Scenario, batches []int) (*BatchSweepResult, error) {
	if len(batches) == 0 {
		batches = []int{1, 8, 32, 128}
	}
	out := &BatchSweepResult{}
	for _, k := range batches {
		clock := simclock.NewReal()
		n := s.newFastNet(clock)
		cfg := s.FlashConfig()
		cfg.PPS = 0 // unthrottled
		cfg.Batch = k
		cfg.MinRoundTime = time.Millisecond
		cfg.DrainWait = 100 * time.Millisecond
		sc, err := core.NewScanner(cfg, n.NewConn(), clock)
		if err != nil {
			return nil, err
		}
		res, err := sc.Run()
		if err != nil {
			return nil, err
		}
		rate := float64(res.ProbesSent) / res.ScanTime.Seconds()
		out.Rows = append(out.Rows, BatchRateRow{
			Batch:        k,
			MeasuredKpps: rate / 1000,
			Interfaces:   res.Store.Interfaces().Len(),
		})
	}
	return out, nil
}
