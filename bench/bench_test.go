package main

import (
	"bytes"
	"io"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/core"
)

// quartiles must be Python's statistics.quantiles(xs, n=4): the expected
// values below were produced by it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 2, 10}, [3]float64{1.25, 2.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2.5, 9, 4, 4, 7, 1.5, 8}, [3]float64{2.5, 4, 8}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
	m := summarize([]float64{90, 100, 110, 95, 105})
	if m.Value != 100 || m.N != 5 || math.Abs(m.spread()-0.15) > 1e-12 {
		t.Errorf("summarize: %+v, spread %v", m, m.spread())
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 50: 3, 90: 4.6, 100: 5} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// A span's self time is its duration less the union of its children's
// intervals, clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "rep", ID: 1, Start: 0, End: 100},
		{Name: "scan", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "emit", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps scan
		{Name: "late", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{Name: "drain", ID: 5, Parent: 2, Start: 12, End: 17},
		{Name: "drain", ID: 6, Parent: 2, Start: 25, End: 30},
	}
	got := selfTimes(spans)
	for name, want := range map[string]time.Duration{"rep": 50, "scan": 10, "emit": 30, "late": 30, "drain": 10} {
		if got[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, got[name], want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := func(v float64) metricValue { return metricValue{Value: v, P25: v * 0.99, P75: v * 1.01, N: 10} }
	lower := metricDef{Name: "t", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		def  metricDef
		a, b metricValue
		want string
	}{
		{lower, steady(100), steady(105), "ok"},
		{lower, steady(100), steady(115), "regressed"},
		{lower, steady(100), steady(50), "ok"},
		{higher, steady(100), steady(85), "regressed"},
		{higher, steady(100), steady(130), "ok"},
		{lower, steady(100), metricValue{Value: 100, P25: 90, P75: 110, N: 10}, "unresolved"},
	} {
		if _, got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.def.Better, tc.a.Value, tc.b.Value, got, tc.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
)

// BENCHMARK.json must stay inside the limits the driver refuses a file
// outside of, and must name exactly the workloads this program has.
func TestBenchmarkJSONContract(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := make(map[string]bool)
	name := func(s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("bad name %q", s)
		}
		if seen[s] {
			t.Errorf("name %q used twice", s)
		}
		seen[s] = true
	}
	ours := workloads()
	if len(ours) != len(spec.Workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(ours), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if w.Name != ours[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, ours[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
	}
}

// mustMove names, for metrics that only some workloads exercise, one
// workload on which the metric has to read more than zero.
var mustMove = map[string]string{
	"permute.map_ns":                 "fr16-inline",
	"probe.build_ns":                 "fr16-inline",
	"probe.parse_ns":                 "dense-exhaustive",
	"probe6.build_ns":                "fr16-v6",
	"probe6.parse_ns":                "fr16-v6",
	"netsim.resolve_ns":              "fr16-inline",
	"netsim.cycle_ns_b1":             "fr16-inline",
	"netsim.cycle_ns_b32":            "fr16-sharded",
	"netsim.write_ns_per_pkt":        "fr16-inline",
	"netsim.write_batch_mean":        "fr16-sharded",
	"netsim.read_busy_ns_per_pkt":    "dense-exhaustive",
	"netsim.inbox_depth_max":         "dense-exhaustive",
	"netsim.replies_per_probe":       "dense-exhaustive",
	"netsim6.write_ns_per_pkt":       "fr16-v6",
	"netsim6.read_busy_ns_per_pkt":   "fr16-v6",
	"simclock.wait_s":                "paced-virtual",
	"simclock.parks":                 "paced-virtual",
	"simclock.park_ns":               "paced-virtual",
	"core.fixed_wait_share":          "fr16-inline",
	"core.self_ns_per_probe":         "fr16-inline",
	"core.scan_time_virtual_s":       "paced-virtual",
	"core.stopset_has_isolated_ns":   "fr16-inline",
	"core.stopset_lookups_per_probe": "fr16-inline",
	"core.stopset_hit_ratio":         "fr16-inline",
	"core.stopset_adds":              "fr16-inline",
	"core.rounds":                    "fr16-inline",
	"core.allocs_per_kprobe":         "fr16-inline",
	"core.bytes_per_probe":           "fr16-inline",
	"core.footprint_ratio":           "fr16-inline",
	"trace.add_hop_ns":               "dense-exhaustive",
	"trace.hops_per_probe":           "dense-exhaustive",
	"trace.bytes_per_route":          "dense-exhaustive",
	"trace.emit_s":                   "dense-exhaustive",
	"trace.emit_mb_per_s":            "paced-virtual",
	"snapshot.checkpoints":           "served-jobs",
	"snapshot.bytes_per_checkpoint":  "served-jobs",
	"snapshot.resume_ms":             "served-jobs",
	"served.job_latency_p50_s":       "served-jobs",
	"served.job_latency_p90_s":       "served-jobs",
	"served.api_overhead_ratio":      "served-jobs",
	"served.submit_ms_p50":           "served-jobs",
	"served.status_ms_p50":           "served-jobs",
	"served.queue_wait_ms_p50":       "served-jobs",
	"served.results_ttfb_ms_p50":     "served-jobs",
	"served.results_mb_per_s":        "served-jobs",
	"served.direct_scan_s":           "served-jobs",
	"cluster.k2_over_k1_rate":        "cluster-k2",
	"cluster.stop_published":         "cluster-k2",
	"cluster.hub_local_hit_ns":       "cluster-k2",
	"cluster.hub_publish_adopt_ns":   "cluster-k2",
	"yarrp.ns_per_probe":             "fr16-inline",
	"budget.explained_ns_per_probe":  "fr16-inline",
	"budget.unexplained_share":       "fr16-inline",
	"tracing.overhead_ratio":         "served-jobs",
	"timing.probe_rate_kpps":         "fr16-sharded",
	"timing.cpu_us_per_probe":        "paced-virtual",
	"timing.time_to_result_s":        "served-jobs",
	"bench.warmup_s":                 "cluster-k2",
	"bench.traced_reps":              "fr16-v6",
}

// The -quick smoke: every workload, both runs, and every metric named in
// BENCHMARK.json printed once per workload with its unit and a finite
// value.
func TestQuickSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	doc, code := execute(config{workload: "all", trace: "both", budget: true,
		run: runOptions{seed: 1, seconds: 1, reps: 1, quick: true}}, spec, &out, io.Discard)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	if len(doc.Workloads) != len(spec.Workloads) {
		t.Fatalf("%d workloads ran, want %d", len(doc.Workloads), len(spec.Workloads))
	}
	text := out.String()
	for _, defs := range [][]metricDef{spec.EndToEnd, spec.PerLayer} {
		for _, d := range defs {
			if n := strings.Count(text, "\n  "+d.Name+" "); n != len(spec.Workloads) {
				t.Errorf("%s printed %d times, want once per workload", d.Name, n)
			}
		}
	}
	for _, w := range doc.Workloads {
		if !w.correct() {
			t.Errorf("%s: not correct: %+v", w.Name, w.Checks)
		}
		for _, d := range spec.EndToEnd {
			m, ok := w.EndToEnd[d.Name]
			if !ok || m.Unit != d.Unit || m.Value <= 0 || math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", w.Name, d.Name, m, ok)
			}
		}
		for _, d := range spec.PerLayer {
			m, ok := w.PerLayer[d.Name]
			if !ok || m.Unit != d.Unit || math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
				t.Errorf("%s: per-layer %s = %+v (present %v)", w.Name, d.Name, m, ok)
			}
			if mustMove[d.Name] == w.Name && m.Value <= 0 {
				t.Errorf("%s: per-layer %s reads %v on the workload that exercises it", w.Name, d.Name, m.Value)
			}
		}
	}
	for _, want := range []string{"budget fr16-inline", "budget.unexplained_share", "span self time served-jobs", "served.handle"} {
		if !strings.Contains(text, want) {
			t.Errorf("-budget printed no %q", want)
		}
	}
}

// The decorators must not change the path measured: a traced fr16-sharded
// rep still batches its writes and still feeds both receive workers.
func TestTracedShardedKeepsItsPath(t *testing.T) {
	w := findWorkload("fr16-sharded")
	rec := newRecorder()
	s, err := w.run(&repCtx{seed: 1, quick: true, rec: rec, rep: rec.begin("rep", 0, "t"), trace: "t"}, w.size(true))
	if err != nil {
		t.Fatal(err)
	}
	if mean := layerValues(w, s)["netsim.write_batch_mean"]; mean <= 1 {
		t.Errorf("netsim.write_batch_mean = %v, want > 1", mean)
	}
	for i := 0; i < 2; i++ {
		if s.tr.readerPkts[i].Load() == 0 {
			t.Errorf("receive worker %d read no packet", i)
		}
	}
	names := make(map[string]bool)
	for _, sp := range rec.snapshot() {
		names[sp.Name] = true
	}
	for _, want := range []string{"rep", "scan", "drain", "conn.write"} {
		if !names[want] {
			t.Errorf("no %s span recorded", want)
		}
	}
}

type plainConn struct{}

func (plainConn) WritePacket([]byte) error       { return nil }
func (plainConn) ReadPacket([]byte) (int, error) { return 0, io.EOF }
func (plainConn) Close() error                   { return nil }

type batchConn struct{ plainConn }

func (batchConn) WriteBatch(pkts [][]byte) (int, error)  { return len(pkts), nil }
func (batchConn) ReadBatch([][]byte, []int) (int, error) { return 0, io.EOF }

type writeOnlyBatchConn struct{ plainConn }

func (writeOnlyBatchConn) WriteBatch(pkts [][]byte) (int, error) { return len(pkts), nil }

// The traced conn has WriteBatch and ReadBatch exactly when the conn it
// wraps has them, each on its own.
func TestTraceConnKeepsCapabilities(t *testing.T) {
	tr := newRepTrace(newRecorder(), "t", 0, 0)
	for _, tc := range []struct {
		inner       core.PacketConn
		write, read bool
	}{
		{plainConn{}, false, false},
		{batchConn{}, true, true},
		{writeOnlyBatchConn{}, true, false},
	} {
		c := traceConn(tc.inner, tr)
		_, w := c.(core.BatchWriter)
		_, r := c.(core.BatchReader)
		if w != tc.write || r != tc.read {
			t.Errorf("%T: traced conn has WriteBatch %v, ReadBatch %v; want %v, %v", tc.inner, w, r, tc.write, tc.read)
		}
	}
}
