package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and regression bounds are written down. The harness reads it
// at start so the numbers it prints, the rows -compare judges and the file
// the driver checks cannot drift apart.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// bound is the regression bound of an end-to-end metric.
func (s *benchSpec) bound(name string) float64 {
	for _, d := range s.EndToEnd {
		if d.Name == name {
			return d.Bound
		}
	}
	return 0
}

// loadSpec finds BENCHMARK.json at the root of the checkout, whether the
// process was started there (the run script) or in bench/ (go test).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// fill turns computed values into the full metric set of defs: a metric
// the workload does not exercise reads 0 (per-layer only — every
// end-to-end metric is defined on every workload), and a computed name the
// spec does not list is a bug in the harness, not a silent extra.
func fill(defs []metricDef, got map[string]metricValue, requireAll bool) (map[string]metricValue, error) {
	known := make(map[string]bool, len(defs))
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v, ok := got[d.Name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		v.Unit = d.Unit
		out[d.Name] = v
	}
	for name := range got {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}
