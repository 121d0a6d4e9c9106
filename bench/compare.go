package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// document is what -out writes and -compare reads.
type document struct {
	Env       environment       `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Quick     bool              `json:"quick,omitempty"`
	Workloads []*workloadResult `json:"workloads"`
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// readSide loads one side of a comparison: a comma-separated list of
// documents. With one document a metric keeps its own median and quartiles
// over reps; with a set of runs each run's median is one value and the
// quartiles are taken over the set, which is how the acceptance check
// measures spread.
func readSide(list string) (map[string]map[string]metricValue, error) {
	values := make(map[string]map[string][]metricValue)
	for _, path := range strings.Split(list, ",") {
		d, err := readDocument(path)
		if err != nil {
			return nil, err
		}
		for _, w := range d.Workloads {
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]metricValue)
			}
			for _, set := range []map[string]metricValue{w.EndToEnd, w.PerLayer} {
				for name, m := range set {
					values[w.Name][name] = append(values[w.Name][name], m)
				}
			}
		}
	}
	out := make(map[string]map[string]metricValue)
	for wl, metrics := range values {
		out[wl] = make(map[string]metricValue)
		for name, ms := range metrics {
			if len(ms) == 1 {
				out[wl][name] = ms[0]
				continue
			}
			medians := make([]float64, len(ms))
			for i, m := range ms {
				medians[i] = m.Value
			}
			m := summarize(medians)
			m.Unit = ms[0].Unit
			out[wl][name] = m
		}
	}
	return out, nil
}

// verdict judges one metric on one workload. worse is how far b's median
// is from a's in the bad direction, as a share of a's.
func verdict(def metricDef, a, b metricValue) (worse float64, word string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
	}
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(a.spread(), b.spread()) > def.Bound:
		// The runs of one side disagree with each other by more than the
		// bound: the two sides cannot be told apart at this resolution.
		return worse, "unresolved"
	case worse > def.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// advisoryBounds are the bounds ISSUE 11 set for the timing metrics. The
// driver cannot enforce them — BENCHMARK.json may only bound metrics whose
// run-to-run spread stays inside the bound, and on a shared two-core VM
// wall and CPU time do not — but -compare still judges them: with the
// spreads seen here a row comes out unresolved far more often than not,
// which is the honest verdict.
var advisoryBounds = []metricDef{
	{Name: "timing.probe_rate_kpps", Better: "higher", Bound: 0.10},
	{Name: "timing.cpu_us_per_probe", Better: "lower", Bound: 0.10},
	{Name: "timing.time_to_result_s", Better: "lower", Bound: 0.10},
	{Name: "trace.emit_s", Better: "lower", Bound: 0.10},
	{Name: "core.scan_time_virtual_s", Better: "lower", Bound: 0.01},
	{Name: "served.job_latency_p50_s", Better: "lower", Bound: 0.10},
	{Name: "served.job_latency_p90_s", Better: "lower", Bound: 0.15},
	{Name: "served.api_overhead_ratio", Better: "lower", Bound: 0.10},
}

// compare applies each metric's bound to two sides, b against a, and
// prints one row per metric and workload: the end-to-end metrics with the
// bounds of BENCHMARK.json, then the timing metrics with advisoryBounds.
// It reports whether any row regressed.
func compare(out io.Writer, spec *benchSpec, listA, listB string) (regressed bool, err error) {
	a, err := readSide(listA)
	if err != nil {
		return false, err
	}
	b, err := readSide(listB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-17s %-23s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "a", "b", "worse", "bound", "spread a", "spread b", "verdict")
	defs := append(append([]metricDef(nil), spec.EndToEnd...), advisoryBounds...)
	for _, w := range spec.Workloads {
		for _, def := range defs {
			ma, okA := a[w.Name][def.Name]
			mb, okB := b[w.Name][def.Name]
			if !okA || !okB || (ma.Value == 0 && mb.Value == 0) { // not run, or not exercised by this workload
				continue
			}
			worse, word := verdict(def, ma, mb)
			regressed = regressed || word == "regressed"
			fmt.Fprintf(out, "%-17s %-23s %12.5g %12.5g %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s (n=%d,%d)\n",
				w.Name, def.Name, ma.Value, mb.Value, worse*100, def.Bound*100,
				ma.spread()*100, mb.spread()*100, word, ma.N, mb.N)
		}
	}
	return regressed, nil
}
