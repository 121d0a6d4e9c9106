// Command bench is the repository's benchmark: seven named workloads, the
// end-to-end metrics a user of the scanner, the daemon or the cluster
// would see, and — in a separate traced run — the per-layer metrics and
// the per-probe budget that say where the time goes. BENCHMARK.json at the
// root of the repository names every metric, its unit, its direction and
// the bound by which it may worsen; README.md in this directory maps
// layers to metrics to workloads.
//
//	bash bench/run.sh                                   # everything, both runs
//	bash bench/run.sh -workload fr16-inline -trace 0    # one workload, end to end
//	bash bench/run.sh -trace 1 -budget -spans spans.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// config is what the flags select.
type config struct {
	workload string // a workload's name, or all
	trace    string // 0, 1 or both
	spans    string // file for the traced run's spans
	out      string // file for the output document
	budget   bool
	run      runOptions
}

func main() {
	var (
		c        config
		compareF = flag.Bool("compare", false, "compare two output documents (or comma-separated sets of them): -compare a.json b.json")
	)
	flag.StringVar(&c.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&c.run.seed, "seed", 1, "keys topology and permutation; the program sees only the generated inputs")
	flag.Float64Var(&c.run.seconds, "seconds", 0, "how long the timed reps of a workload go on (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&c.run.reps, "reps", 0, "run exactly this many timed reps instead of filling -seconds")
	flag.StringVar(&c.trace, "trace", "both", "0: the untraced run, end-to-end metrics; 1: the traced run, per-layer metrics; both")
	flag.StringVar(&c.spans, "spans", "", "write the traced run's spans and boundary counters to this file")
	flag.StringVar(&c.out, "out", "", "write the output document (environment, metrics with quartiles) to this file")
	flag.BoolVar(&c.run.quick, "quick", false, "smoke sizes: at most 4,096 blocks, 1 rep, 8 jobs")
	flag.BoolVar(&c.budget, "budget", false, "print the per-probe layer budget of every scan workload")
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *compareF {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two files")
			os.Exit(2)
		}
		regressed, err := compare(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		switch {
		case err != nil:
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		case regressed:
			os.Exit(1)
		}
		return
	}
	_, code := execute(c, spec, os.Stdout, os.Stderr)
	os.Exit(code)
}

// execute runs the selected workloads and prints their metrics, and last
// the result line. The exit code is 0 when every output was correct, 1
// when a check failed, 2 when the benchmark itself could not run.
func execute(c config, spec *benchSpec, stdout, stderr io.Writer) (*document, int) {
	fail := func(err error) (*document, int) {
		fmt.Fprintln(stderr, "bench:", err)
		return nil, 2
	}
	o := c.run
	if o.seconds == 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.quick && o.reps == 0 {
		o.reps = 1
	}
	untraced := c.trace == "0" || c.trace == "both"
	traced := c.trace == "1" || c.trace == "both"
	if !untraced && !traced {
		return fail(fmt.Errorf("-trace must be 0, 1 or both"))
	}
	selected := workloads()
	if c.workload != "all" {
		w := findWorkload(c.workload)
		if w == nil {
			return fail(fmt.Errorf("no workload %q", c.workload))
		}
		selected = []*workload{w}
	}

	rec := newRecorder()
	doc := &document{Seed: o.seed, Seconds: o.seconds, Quick: o.quick}
	var boundaries []boundaryStats
	byName := make(map[string]*workloadResult)
	for _, w := range selected {
		res := &workloadResult{Name: w.name, Targets: w.size(o.quick)}
		if untraced {
			r, err := runUntraced(w, o, spec, stderr)
			if err != nil {
				return fail(err)
			}
			res = r
		}
		if traced {
			r, err := runTracedPhase(w, o, spec, rec, stderr)
			if err != nil {
				return fail(err)
			}
			res.PerLayer, res.budget = r.PerLayer, r.budget
			// Both runs were made: the timings of the untraced run, which
			// has more reps behind them, replace the reference reps'.
			for name, m := range res.timing {
				m.Unit = res.PerLayer[name].Unit
				res.PerLayer[name] = m
			}
			for _, c := range r.Checks {
				c.Name = "traced: " + c.Name
				res.Checks = append(res.Checks, c)
			}
			if !untraced {
				res.Reps, res.Attempted, res.Failed = r.Reps, r.Attempted, r.Failed
			}
			boundaries = append(boundaries, r.boundaries...)
		}
		// fr16-sharded scans fr16-inline's universe: the two halves of every
		// paired implementation must discover the same topology.
		if inline := byName["fr16-inline"]; w.name == "fr16-sharded" && inline != nil && untraced {
			a, b := inline.EndToEnd["interfaces_per_ktarget"].Value, res.EndToEnd["interfaces_per_ktarget"].Value
			res.check(o.quick, "interfaces within 1% of fr16-inline", math.Abs(a-b) <= 0.01*a, "inline %.3f, sharded %.3f", a, b)
		}
		byName[w.name] = res
		doc.Workloads = append(doc.Workloads, res)
		printWorkload(stdout, spec, res)
		if c.budget && traced {
			if res.budget != nil {
				printBudget(stdout, res)
			}
			printSelfTimes(stdout, rec.snapshot(), w.name)
		}
	}

	if c.spans != "" {
		if err := writeSpanFile(c.spans, rec, boundaries); err != nil {
			return fail(err)
		}
	}
	if c.out != "" {
		doc.Env = readEnvironment()
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(c.out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}

	// The result line: one JSON object, last on standard output. With one
	// workload it is exactly the driver's contract; with several, metric
	// names carry their workload.
	line := resultLine{Correct: true, Metrics: make(map[string]lineMetric)}
	for _, res := range doc.Workloads {
		line.Correct = line.Correct && res.correct()
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, set := range []map[string]metricValue{res.EndToEnd, res.PerLayer} {
			for name, m := range set {
				if len(doc.Workloads) > 1 {
					name = res.Name + "/" + name
				}
				line.Metrics[name] = lineMetric{Value: m.Value, Unit: m.Unit}
			}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		return doc, 1
	}
	return doc, 0
}

// resultLine is the driver's contract: exactly these keys, the metrics of
// the run that was asked for (-trace 0: end to end; -trace 1: per layer).
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printWorkload prints every metric of one workload by name, with its
// unit, its quartiles and the number of samples behind it.
func printWorkload(out io.Writer, spec *benchSpec, r *workloadResult) {
	fmt.Fprintf(out, "\n%s  targets=%d reps=%d attempted=%d failed=%d failed_share=%.3f\n",
		r.Name, r.Targets, r.Reps, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	row := func(name string, m metricValue, bound float64) {
		b := ""
		if bound > 0 {
			b = fmt.Sprintf("  bound %.0f%%", bound*100)
		}
		fmt.Fprintf(out, "  %-36s %14.6g %-8s p25 %-12.6g p75 %-12.6g n=%d%s\n", name, m.Value, m.Unit, m.P25, m.P75, m.N, b)
	}
	for _, d := range spec.EndToEnd {
		if m, ok := r.EndToEnd[d.Name]; ok {
			row(d.Name, m, d.Bound)
		}
	}
	for _, d := range spec.PerLayer {
		if m, ok := r.PerLayer[d.Name]; ok {
			row(d.Name, m, 0)
		}
	}
	checks := append([]check(nil), r.Checks...)
	sort.SliceStable(checks, func(i, j int) bool { return !checks[i].OK && checks[j].OK })
	for _, c := range checks {
		word := "ok"
		switch {
		case !c.OK && c.Advisory:
			word = "not met: " + c.Detail
		case !c.OK:
			word = "FAILED: " + c.Detail
		}
		fmt.Fprintf(out, "  check %-52s %s\n", c.Name, word)
	}
}
