package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// budgetRow is one layer of a workload's per-probe budget: what one call
// costs in isolation, how many calls a probe makes (from the traced run),
// and what a decorator saw the layer cost inside the scan, where one
// could see it.
type budgetRow struct {
	layer      string
	isolatedNs float64 // ns per call, isolated measurement
	perProbe   float64 // calls per probe, traced run
	inScanNs   float64 // ns per probe inside the scan; 0 = not observable from outside
}

func (r budgetRow) isolated() float64 { return r.isolatedNs * r.perProbe }

// budget lines the layers up for one scan workload. The whole they are
// set against is the untraced reference rep's CPU ns per probe: sender and
// receiver run on two cores, so layer costs add up in CPU time, not in
// wall time. What is left over is the engine's own sender loop and reply
// handling, the scheduler and the collector — none of which has an
// exported function to time alone.
func budget(w *workload, layers map[string]metricValue, ref *sample) []budgetRow {
	v := func(name string) float64 { return layers[name].Value }
	replies := v("netsim.replies_per_probe")
	lookups := v("core.stopset_lookups_per_probe")
	rows := []budgetRow{{layer: "permute.map", isolatedNs: v("permute.map_ns"), perProbe: float64(ref.targets) / float64(ref.probes)}}
	if w.ipv4 {
		cycle := "netsim.cycle_ns_b1"
		if v("netsim.write_batch_mean") > 1 {
			cycle = "netsim.cycle_ns_b32"
		}
		rows = append(rows,
			budgetRow{layer: "probe.build", isolatedNs: v("probe.build_ns"), perProbe: 1},
			// In the scan only the write half is a cost figure: a read
			// entered with responses in flight also waits for the next one.
			budgetRow{layer: "netsim write+read (" + cycle + "; in scan: write)", isolatedNs: v(cycle), perProbe: 1,
				inScanNs: v("netsim.write_ns_per_pkt")},
			budgetRow{layer: "probe.parse", isolatedNs: v("probe.parse_ns"), perProbe: replies},
			budgetRow{layer: "core stop set Has", isolatedNs: v("core.stopset_has_isolated_ns"), perProbe: lookups,
				inScanNs: v("core.stopset_has_ns") * lookups},
			budgetRow{layer: "trace.AddHopAt", isolatedNs: v("trace.add_hop_ns"), perProbe: v("trace.hops_per_probe")},
		)
	} else {
		rows = append(rows,
			budgetRow{layer: "probe6.build", isolatedNs: v("probe6.build_ns"), perProbe: 1},
			budgetRow{layer: "netsim6 write (in scan only)", inScanNs: v("netsim6.write_ns_per_pkt")},
			budgetRow{layer: "probe6.parse", isolatedNs: v("probe6.parse_ns"), perProbe: replies},
			budgetRow{layer: "core stop set Has", perProbe: lookups, inScanNs: v("core.stopset_has_ns") * lookups},
		)
	}
	return rows
}

// printBudget writes the layer table of one workload: ROADMAP item 1's
// budget report.
func printBudget(out io.Writer, r *workloadResult) {
	v := func(name string) float64 { return r.PerLayer[name].Value }
	fmt.Fprintf(out, "\nbudget %s\n", r.Name)
	fmt.Fprintf(out, "  %-58s %12s %10s %14s %14s\n", "layer", "isolated ns", "per probe", "ns/probe", "in-scan ns/pr")
	for _, row := range r.budget {
		inScan := "-"
		if row.inScanNs > 0 {
			inScan = fmt.Sprintf("%.1f", row.inScanNs)
		}
		fmt.Fprintf(out, "  %-58s %12.1f %10.3f %14.1f %14s\n", row.layer, row.isolatedNs, row.perProbe, row.isolated(), inScan)
	}
	explained, share := v("budget.explained_ns_per_probe"), v("budget.unexplained_share")
	whole := explained / (1 - share)
	fmt.Fprintf(out, "  %-58s %37.1f\n", "explained (sum of isolated ns/probe)", explained)
	fmt.Fprintf(out, "  %-58s %37.1f\n", "end to end, CPU ns/probe (untraced)", whole)
	fmt.Fprintf(out, "  %-58s %37.1f\n", "engine sender path, core.self_ns_per_probe", v("core.self_ns_per_probe"))
	if y := v("yarrp.ns_per_probe"); y > 0 {
		fmt.Fprintf(out, "  %-58s %37.1f\n", "stateless control, yarrp.ns_per_probe", y)
	}
	fmt.Fprintf(out, "  %-58s %36.1f%%\n", "unexplained share, budget.unexplained_share", share*100)
	fmt.Fprintf(out, "  %-58s %37.3f\n", "traced / untraced wall, tracing.overhead_ratio", v("tracing.overhead_ratio"))
}

// printSelfTimes writes where the wall time of one workload's traced reps
// went, by span name: each span's self time is its duration less what its
// children cover. For served-jobs this is the budget: a job's self time is
// the client polling and sleeping, an http.* span's the HTTP stack and the
// loopback, served.handle the daemon. The per-packet names (conn.write,
// ...) are the one-in-1024 samples, not totals; their totals are the
// boundary counters.
func printSelfTimes(out io.Writer, spans []span, workload string) {
	var mine []span
	var whole time.Duration
	count := make(map[string]int)
	for _, s := range spans {
		if s.Trace != workload && !strings.HasPrefix(s.Trace, workload+"/") {
			continue
		}
		mine = append(mine, s)
		count[s.Name]++
		if s.Name == "workload" {
			whole = time.Duration(s.End - s.Start)
		}
	}
	self := selfTimes(mine)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(out, "\nspan self time %s (traced reps, wall)\n  %-20s %8s %12s %8s\n", workload, "span", "count", "self ms", "share")
	for _, name := range names {
		fmt.Fprintf(out, "  %-20s %8d %12.2f %7.1f%%\n", name, count[name],
			float64(self[name])/1e6, 100*float64(self[name])/float64(max(whole, 1)))
	}
}
