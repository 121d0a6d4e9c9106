package main

import (
	"fmt"
	"io"
	"math"
	"time"

	flashroute "github.com/flashroute/flashroute"
)

// runOptions is what the flags ask of one workload run.
type runOptions struct {
	seed    int64
	seconds float64 // timed reps are started until this much time has gone
	reps    int     // > 0: exactly this many timed reps instead
	quick   bool
}

const (
	minReps       = 3 // quartiles need three values
	extraSetups   = 3 // set-up-only samples taken before every timed rep
	tracedReps    = 3
	referenceReps = 2 // untraced reps inside the traced run, for the overhead ratio
)

// check is one correctness check on a workload's outputs. An advisory
// check is printed and recorded but does not make the run incorrect.
type check struct {
	Name     string `json:"name"`
	OK       bool   `json:"ok"`
	Advisory bool   `json:"advisory,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// workloadResult is one workload's part of the output document.
type workloadResult struct {
	Name      string                 `json:"name"`
	Targets   int                    `json:"targets"`
	Reps      int                    `json:"reps"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Checks    []check                `json:"checks"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`

	timing     map[string]metricValue // timings of the untraced run
	budget     []budgetRow
	boundaries []boundaryStats
}

func (r *workloadResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK && !c.Advisory {
			return false
		}
	}
	return r.Failed == 0
}

// check records one check; the format says what was seen when it fails.
// Checks that hold a real-clock count to a tolerance pass the run's -quick
// as advisory: a -quick universe is small enough for such counts to depend
// on scheduling.
func (r *workloadResult) check(advisory bool, name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok, Advisory: advisory}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// attempt runs one rep and accounts for it: a failed rep is counted,
// reported on stderr and returned as nil.
func (r *workloadResult) attempt(w *workload, rc *repCtx, targets int, stderr io.Writer) *sample {
	s, msg := runRep(w, rc, targets)
	r.Attempted += w.opsPerRep(rc.quick)
	if msg != "" {
		r.Failed += w.opsPerRep(rc.quick)
		fmt.Fprintf(stderr, "%s: rep %d failed: %s\n", w.name, rc.index, msg)
		return nil
	}
	return s
}

// runRep runs one rep and turns an error or a faulted sample into a
// failure message.
func runRep(w *workload, rc *repCtx, targets int) (*sample, string) {
	s, err := w.run(rc, targets)
	if err != nil {
		return nil, err.Error()
	}
	return s, s.fault()
}

// timedReps runs the untimed warm-up rep and then the timed reps. A failed
// rep is counted, reported on stderr and left out of the samples.
func timedReps(w *workload, o runOptions, res *workloadResult, stderr io.Writer) (samples []*sample, setups []float64, err error) {
	targets := w.size(o.quick)
	if _, msg := runRep(w, &repCtx{seed: o.seed, quick: o.quick}, targets); msg != "" {
		return nil, nil, fmt.Errorf("%s: warm-up rep: %s", w.name, msg)
	}
	start := time.Now()
	for i := 1; ; i++ {
		if o.reps > 0 && i > o.reps {
			break
		}
		if o.reps == 0 && i > minReps && time.Since(start).Seconds() >= o.seconds {
			break
		}
		// Set-up alone, a few times before every rep: set-up takes
		// milliseconds, so its median wants more samples than there are reps.
		for k := 0; k < extraSetups; k++ {
			s, err := w.run(&repCtx{seed: o.seed, quick: o.quick, index: i, setupOnly: true}, targets)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
			setups = append(setups, s.setup.Seconds())
		}
		if s := res.attempt(w, &repCtx{seed: o.seed, quick: o.quick, index: i}, targets, stderr); s != nil {
			samples = append(samples, s)
			setups = append(setups, s.setup.Seconds())
		}
	}
	res.Reps = len(samples)
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("%s: every rep failed", w.name)
	}
	return samples, setups, nil
}

func perRep(samples []*sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func probesPerTarget(s *sample) float64 { return float64(s.probes) / float64(s.targets) }
func ifacesPerKTarget(s *sample) float64 {
	return float64(s.interfaces) / (float64(s.targets) / 1000)
}

// endToEnd computes every end-to-end metric from untraced samples; setups
// are all the set-ups timed, the reps' own and the set-up-only ones.
func endToEnd(samples []*sample, setups []float64) map[string]metricValue {
	return map[string]metricValue{
		"probes_per_target":      summarize(perRep(samples, probesPerTarget)),
		"interfaces_per_ktarget": summarize(perRep(samples, ifacesPerKTarget)),
		"live_bytes_per_target": summarize(perRep(samples, func(s *sample) float64 {
			return float64(s.liveBytes) / float64(s.targets)
		})),
		"setup_s": summarize(setups),
	}
}

// timings computes the wall-clock and CPU metrics from untraced samples.
// They are reported as per-layer metrics, without a bound the driver
// enforces: on a shared two-core VM their run-to-run spread (10-30%, see
// README.md) is wider than any bound BENCHMARK.json may state.
func timings(samples []*sample) map[string]metricValue {
	var units []float64
	for _, s := range samples {
		units = append(units, s.units...)
	}
	return map[string]metricValue{
		"timing.probe_rate_kpps": summarize(perRep(samples, func(s *sample) float64 {
			return float64(s.probes) / s.scan.Seconds() / 1000
		})),
		"timing.cpu_us_per_probe": summarize(perRep(samples, func(s *sample) float64 {
			return float64(s.cpu) / 1e3 / float64(s.probes)
		})),
		"timing.time_to_result_s": summarize(units),
	}
}

// checkSamples runs the correctness checks that compare reps of one
// workload with each other and with what the inputs guarantee.
func checkSamples(w *workload, quick bool, samples []*sample, res *workloadResult) {
	first := samples[0]
	if w.identical {
		same := true
		for _, s := range samples[1:] {
			same = same && s.probes == first.probes && s.interfaces == first.interfaces && s.scanTime == first.scanTime
		}
		res.check(false, "virtual-clock reps identical", same,
			"probes, interfaces or virtual scan time differ between reps of one seed")
	}
	if w.realClock {
		ifs := perRep(samples, func(s *sample) float64 { return float64(s.interfaces) })
		lo, hi := percentile(ifs, 0), percentile(ifs, 100)
		res.check(quick, "interfaces within 1% across reps", hi-lo <= 0.01*median(ifs),
			"interfaces range %.0f..%.0f", lo, hi)
	}
	if w.allAnswer {
		ok := true
		for _, s := range samples {
			ok = ok && s.routes == s.targets
		}
		res.check(false, "one route per block", ok, "routes %d, blocks %d", first.routes, first.targets)
	}
}

// runUntraced is the measured run: warm-up, timed reps, checks, and the
// end-to-end metrics.
func runUntraced(w *workload, o runOptions, spec *benchSpec, stderr io.Writer) (*workloadResult, error) {
	res := &workloadResult{Name: w.name, Targets: w.size(o.quick)}
	samples, setups, err := timedReps(w, o, res, stderr)
	if err != nil {
		return nil, err
	}
	checkSamples(w, o.quick, samples, res)
	res.timing = timings(samples)
	res.EndToEnd, err = fill(spec.EndToEnd, endToEnd(samples, setups), true)
	return res, err
}

// runTracedPhase is the traced run: a warm-up, then traced reps with
// untraced reference reps in between, then the isolated measurements. It
// yields the per-layer metrics; end-to-end metrics never come from here.
func runTracedPhase(w *workload, o runOptions, spec *benchSpec, rec *recorder, stderr io.Writer) (*workloadResult, error) {
	targets := w.size(o.quick)
	res := &workloadResult{Name: w.name, Targets: targets}
	start := time.Now()
	if _, msg := runRep(w, &repCtx{seed: o.seed, quick: o.quick}, targets); msg != "" {
		return nil, fmt.Errorf("%s: warm-up rep: %s", w.name, msg)
	}
	warmup := time.Since(start)

	n := tracedReps
	if o.reps > 0 {
		n = o.reps
	}
	root := rec.begin("workload", 0, w.name)
	var samples, refs []*sample
	for i := 1; i <= n; i++ {
		if i <= referenceReps {
			ref, msg := runRep(w, &repCtx{seed: o.seed, quick: o.quick, index: i}, targets)
			if msg != "" {
				return nil, fmt.Errorf("%s: untraced reference rep: %s", w.name, msg)
			}
			refs = append(refs, ref)
		}
		trace := fmt.Sprintf("%s/rep%d", w.name, i)
		rep := rec.begin("rep", root, trace)
		s := res.attempt(w, &repCtx{seed: o.seed, quick: o.quick, index: i, rec: rec, rep: rep, trace: trace}, targets, stderr)
		rec.end(rep)
		if s == nil {
			continue
		}
		samples = append(samples, s)
		if s.tr != nil {
			res.boundaries = append(res.boundaries, s.tr.boundaries()...)
		}
	}
	rec.end(root)
	res.Reps = len(samples)
	if len(samples) == 0 {
		return nil, fmt.Errorf("%s: every traced rep failed", w.name)
	}
	checkSamples(w, o.quick, samples, res)
	ref := refs[len(refs)-1]

	// Traced and untraced runs must describe the same scan.
	for _, m := range []struct {
		name string
		f    func(*sample) float64
	}{{"probes_per_target", probesPerTarget}, {"interfaces_per_ktarget", ifacesPerKTarget}} {
		bound := spec.bound(m.name)
		got, want := median(perRep(samples, m.f)), median(perRep(refs, m.f))
		res.check(o.quick, "traced run agrees on "+m.name, math.Abs(got-want) <= bound*want,
			"traced %.4f, untraced %.4f, bound %.0f%%", got, want, bound*100)
	}

	// Per-layer values: per traced rep, then the median over reps.
	perRepValues := make(map[string][]float64)
	series := make(map[string][]float64)
	for _, s := range samples {
		for name, v := range layerValues(w, s) {
			perRepValues[name] = append(perRepValues[name], v)
		}
		for name, xs := range s.series {
			series[name] = append(series[name], xs...)
		}
	}
	layers := make(map[string]metricValue)
	for name, xs := range perRepValues {
		layers[name] = summarize(xs)
	}
	one := func(name string, v float64) { layers[name] = summarize([]float64{v}) }

	// Pooled request timings (served-jobs).
	for _, name := range []string{"served.submit_ms", "served.status_ms", "served.queue_wait_ms", "served.results_ttfb_ms"} {
		if xs := series[name]; len(xs) > 0 {
			layers[name+"_p50"] = summarize(xs)
		}
	}
	if lat := series["served.job_latency_s"]; len(lat) > 0 {
		p50 := summarize(lat)
		layers["served.job_latency_p50_s"] = p50
		layers["served.job_latency_p90_s"] = metricValue{Value: percentile(lat, 90), P25: p50.P25, P75: percentile(lat, 100), N: len(lat)}
		one("served.api_overhead_ratio", p50.Value/layers["served.direct_scan_s"].Value)
	}

	// From the untraced reference reps: timings, allocation and footprint.
	for name, m := range timings(refs) {
		layers[name] = m
	}
	one("core.allocs_per_kprobe", float64(ref.mallocs)/float64(ref.probes)*1000)
	one("core.bytes_per_probe", float64(ref.alloced)/float64(ref.probes))
	if w.ipv4 {
		one("core.footprint_ratio", float64(ref.liveBytes)/float64(flashroute.EstimateFootprint(ref.targets).Total()))
	}
	scanWall := func(s *sample) float64 { return s.scan.Seconds() }
	one("tracing.overhead_ratio", median(perRep(samples, scanWall))/median(perRep(refs, scanWall)))
	one("bench.warmup_s", warmup.Seconds())
	one("bench.traced_reps", float64(len(samples)))

	if w.micros != nil {
		iso, err := w.micros(o, targets, ref, samples[len(samples)-1])
		if err != nil {
			return nil, fmt.Errorf("%s: isolated measurements: %w", w.name, err)
		}
		for name, v := range iso {
			one(name, v)
		}
	}

	if w.fastNet && !o.quick {
		// A property of the benchmark's inputs, not of the program's
		// outputs: reported, and no reason to fail the run.
		share := layers["core.fixed_wait_share"].Value
		res.check(true, "fixed waits under 1% of a rep", share < 0.01, "core.fixed_wait_share %.4f", share)
	}
	if samples[0].tr != nil { // a scan workload: its layers were counted per probe
		res.budget = budget(w, layers, ref)
		explained := 0.0
		for _, row := range res.budget {
			explained += row.isolated()
		}
		whole := float64(ref.cpu) / float64(ref.probes)
		one("budget.explained_ns_per_probe", explained)
		one("budget.unexplained_share", 1-explained/whole)
	}
	var err error
	res.PerLayer, err = fill(spec.PerLayer, layers, false)
	return res, err
}

// layerValues derives one traced rep's per-layer values from what the
// decorators counted and what the engine's result says.
func layerValues(w *workload, s *sample) map[string]float64 {
	v := make(map[string]float64)
	probes := float64(s.probes)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	if tr := s.tr; tr != nil {
		net := "netsim"
		if !w.ipv4 {
			net = "netsim6"
		}
		written := float64(tr.write.items.Load())
		read := float64(tr.readBusy.items.Load() + tr.readWait.items.Load())
		v[net+".write_ns_per_pkt"] = tr.write.perItem()
		v[net+".read_busy_ns_per_pkt"] = tr.readBusy.perItem()
		v["netsim.write_batch_mean"] = ratio(written, float64(tr.write.calls.Load()))
		v["netsim.read_wait_s"] = tr.readWait.busy().Seconds()
		v["netsim.inbox_depth_p50"], v["netsim.inbox_depth_max"] = tr.depthQuantiles()
		v["netsim.replies_per_probe"] = ratio(read, written)

		waits := float64(tr.sleep.busy())
		parks := float64(tr.sleep.calls.Load() + tr.park.calls.Load())
		senderTime := float64(s.scan) * float64(w.senders)
		v["simclock.wait_s"] = waits / 1e9
		v["simclock.parks"] = parks
		v["simclock.park_ns"] = ratio(waits+float64(tr.park.busy()), parks)
		v["core.fixed_wait_share"] = ratio(waits, senderTime)
		v["core.self_ns_per_probe"] = ratio(senderTime-float64(tr.write.busy())-waits, probes)

		lookups := float64(tr.lookups.Load())
		v["core.stopset_has_ns"] = tr.has.perItem()
		v["core.stopset_lookups_per_probe"] = ratio(lookups, probes)
		v["core.stopset_hit_ratio"] = ratio(float64(tr.hits.Load()), lookups)
		v["core.stopset_adds"] = float64(tr.adds.Load())
		v["trace.hops_per_probe"] = ratio(float64(tr.hops.Load()), probes)
	}
	if s.virtual {
		v["core.scan_time_virtual_s"] = s.scanTime.Seconds()
	}
	v["core.rounds"] = float64(s.rounds)
	v["core.send_errors"] = float64(s.sendErrors)
	v["core.send_retries"] = float64(s.sendRetries)
	v["core.read_errors"] = float64(s.readErrors)
	v["core.duplicate_responses"] = float64(s.duplicates)
	v["core.mismatched_responses"] = float64(s.mismatched)
	v["core.unparsed_responses"] = float64(s.unparsed)
	if s.routes > 0 && s.storeBytes > 0 {
		v["trace.bytes_per_route"] = float64(s.storeBytes) / float64(s.routes)
	}
	if s.emit > 0 {
		v["trace.emit_s"] = s.emit.Seconds()
		v["trace.emit_mb_per_s"] = float64(s.emitBytes) / 1e6 / s.emit.Seconds()
	}
	for name, x := range s.extra {
		v[name] = x
	}
	return v
}
