// Command perfbench is the repository benchmark: it runs one workload
// through the repository's own entry points (the simulator harness, the
// live TCP cluster, the KV service), checks that every run's output is
// correct, and prints each metric by name and unit. Its last line of
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics that every workload
// reports (BENCHMARK.json's end_to_end list); the workload-specific
// end-to-end metrics are printed above it. With -trace 1 the run measures
// the workload twice, untraced and then traced, and the metrics are the
// per-layer ones (BENCHMARK.json's per_layer list), timed from spans the
// benchmark records around its calls into each layer.
//
// Build and run it from the repository root with perfbench/run.sh, which
// keeps the build cache and all scratch files inside the checkout:
//
//	bash perfbench/run.sh --workload sim-a1 --seed 1 --seconds 25 --trace 0
//	bash perfbench/repeat.sh sim-a1 10     # ten seeds, then median and quartiles
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics every workload reports on an untraced run, in
// BENCHMARK.json order; regressions on them are gated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// workloadOnly are end-to-end metrics that exist on some workloads only,
// or that swing too much between runs to gate: cpu_ms_per_op on kv-lease
// is bimodal from process to process (0.093–0.100 vs 0.119–0.134 ms over
// ten seeds on a 2-vCPU VM), with the same ops/s and allocations. They are
// printed on every untraced run but are not part of the JSON result,
// whose metric set is the same for every workload.
var workloadOnly = []metricDef{
	{"cpu_ms_per_op", "ms", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p99_ms", "ms", "lower"},
	{"wire_bytes_per_op", "B", "lower"},
	{"fsyncs_per_op", "count", "lower"},
	{"wan_msgs_per_op", "count", "lower"},
	{"failover_ms", "ms", "lower"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order. A
// metric a workload does not exercise, or a percentile withheld for too
// few samples, is 0 in the JSON result; the printed table says which.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"gen.late_p99_ms", "ms", "lower"},
		{"gen.cast_call_p50_us", "us", "lower"},
		{"gen.cast_call_p99_us", "us", "lower"},
		{"sim.events_per_op", "count", "lower"},
		{"sim.events_per_s", "1/s", "higher"},
		{"sim.allocs_per_event", "count", "lower"},
		{"amcast.msgs_per_op", "count", "lower"},
		{"amcast.degree_mean", "count", "lower"},
		{"amcast.degree_max", "count", "lower"},
		{"abcast.msgs_per_op", "count", "lower"},
		{"abcast.degree_mean", "count", "lower"},
		{"abcast.degree_max", "count", "lower"},
		{"consensus.learns_per_op", "count", "lower"},
		{"consensus.batch_mean", "count", "higher"},
		{"consensus.msgs_per_op", "count", "lower"},
		{"rmcast.msgs_per_op", "count", "lower"},
		{"rmcast.wan_msgs_per_op", "count", "lower"},
		{"fd.suspicions", "count", "lower"},
		{"fd.leader_changes", "count", "lower"},
		{"fd.lease_denied_frac", "ratio", "lower"},
		{"lane.depth_max", "count", "lower"},
		{"wire.frames_out_per_op", "count", "lower"},
		{"wire.frames_per_write", "count", "higher"},
		{"wire.writes_per_op", "count", "lower"},
		{"wire.compression_ratio", "ratio", "higher"},
		{"storage.appends_per_op", "count", "lower"},
		{"storage.append_p50_us", "us", "lower"},
		{"storage.append_p99_us", "us", "lower"},
		{"storage.commits_per_op", "count", "lower"},
		{"storage.commit_p50_ms", "ms", "lower"},
		{"storage.commit_p99_ms", "ms", "lower"},
		{"storage.commit_busy_frac", "ratio", "lower"},
		{"svc.submit_p50_us", "us", "lower"},
		{"svc.submit_p99_us", "us", "lower"},
		{"svc.order_p50_ms", "ms", "lower"},
		{"svc.order_p99_ms", "ms", "lower"},
		{"svc.apply_p50_us", "us", "lower"},
		{"svc.apply_p99_us", "us", "lower"},
		{"svc.query_p50_us", "us", "lower"},
		{"svc.query_p99_us", "us", "lower"},
		{"svc.rest_p50_ms", "ms", "lower"},
		{"svc.retries", "count", "lower"},
		{"svc.redirects", "count", "lower"},
		{"svc.duplicates", "count", "lower"},
		{"svc.stale_reads", "count", "lower"},
		{"order.first_p50_ms", "ms", "lower"},
		{"order.spread_p99_ms", "ms", "lower"},
	}
	for _, s := range lifecycleStages {
		defs = append(defs,
			metricDef{"stage." + s + "_p50_ms", "ms", "lower"},
			metricDef{"stage." + s + "_p99_ms", "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"runtime.gc_cpu_frac", "ratio", "lower"},
		metricDef{"runtime.alloc_bytes_per_op", "B", "lower"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
		metricDef{"trace.overhead_p50_frac", "ratio", "lower"})
	for _, s := range selfTimed {
		defs = append(defs, metricDef{"self." + s + "_us_per_op", "us", "lower"})
	}
	return defs
}()

// lifecycleStages are the program's own lifecycle-tracer stages
// (LiveConfig.TraceSpans) whose latency reservoirs the traced run reports.
var lifecycleStages = []string{"enqueue", "promise", "accept", "order", "fsync", "lanedeq", "reply"}

// workload is one set of inputs the benchmark runs. why says why it was
// chosen and which layers it loads; BENCHMARK.json records the same text.
type workload struct {
	name string
	why  string
	run  func(env *runEnv) (*outcome, error)
	// procs is the GOMAXPROCS the workload runs with; 0 keeps the default.
	procs int
}

var workloads = []workload{simA1, simA2, liveA1, kvLease}

// runEnv is what one pass of a workload runs with.
type runEnv struct {
	seed    int64
	budget  time.Duration // how long the pass measures
	traced  bool
	spans   *spanLog // nil unless traced
	scratch string   // per-run scratch directory inside the checkout
	ports   *portPlan
}

// value is one measured metric.
type value struct {
	v  float64
	n  int  // operations behind a percentile (0 for counts and ratios)
	ok bool // false: not measured on this workload, or withheld
}

// outcome is what one pass of a workload measured.
type outcome struct {
	attempted, failed int
	violations        []string
	metrics           map[string]value
	// Self times are reported per op over the spans that start inside
	// [selfFrom, selfTo) (all spans when zero), selfOps ops in all.
	selfFrom, selfTo time.Time
	selfOps          float64
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]value)} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = value{v: v, ok: true} }

// setRatio records num/den, or leaves the metric unmeasured when den is 0.
func (o *outcome) setRatio(name string, num, den float64) {
	if den != 0 {
		o.set(name, num/den)
	}
}

// setQ records the num/den quantile of d with its sample count. It stays
// unmeasured when d has too few samples beyond it, or when it falls among
// the failed operations (+Inf).
func (o *outcome) setQ(name string, d dist, num, den int) {
	v, ok := d.quantile(num, den)
	o.metrics[name] = value{v: v, n: d.n(), ok: ok && !math.IsInf(v, 1)}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1 runs the workload untraced, then traced, and reports per-layer metrics")
	scratch := fs.String("scratch", filepath.Join(".bench_build", "run"), "scratch directory (WAL dirs, span dumps)")
	summarize := fs.Bool("summarize", false, "read result lines from the named files and print the median and quartiles of every metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarize {
		if err := summarizeResults(fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := lookupWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if err := measure(wl, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *scratch, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// errIncorrect marks a run whose output failed a correctness check.
var errIncorrect = errors.New("correctness check failed")

func measure(wl workload, seed int64, budget time.Duration, traced bool, scratch string, stdout io.Writer) error {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	ports, err := newPortPlan()
	if err != nil {
		return err
	}
	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs)
	}
	prov, err := provenance(wl, seed, budget, traced, scratch, ports)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	fmt.Fprintf(stdout, "workload %s: %s\n", wl.name, wl.why)

	env := &runEnv{seed: seed, budget: budget, scratch: scratch, ports: ports}
	if !traced {
		o, err := wl.run(env)
		if err != nil {
			return err
		}
		o.set("peak_rss_mb", peakRSSMB())
		if err := checkOutcome(o, stdout); err != nil {
			return err
		}
		printTable(stdout, "end-to-end", endToEnd, o)
		printTable(stdout, "end-to-end, this workload only", workloadOnly, o)
		printTable(stdout, "per-layer counts (timings need -trace 1)", perLayer, o)
		return printResult(stdout, o, endToEnd, true)
	}

	// Traced: the same workload untraced and then traced, half the budget
	// each, so the traced run's cost shows as trace.overhead_frac.
	env.budget = budget / 2
	plain, err := wl.run(env)
	if err != nil {
		return err
	}
	if err := checkOutcome(plain, stdout); err != nil {
		return err
	}
	env.traced, env.spans = true, newSpanLog()
	o, err := wl.run(env)
	if err != nil {
		return err
	}
	o.attempted += plain.attempted
	o.failed += plain.failed
	if err := checkOutcome(o, stdout); err != nil {
		return err
	}
	if a, b := plain.metrics["ops_per_s"], o.metrics["ops_per_s"]; a.ok && b.ok {
		o.set("trace.overhead_frac", 1-b.v/a.v)
	}
	if a, b := plain.metrics["latency_p50_ms"], o.metrics["latency_p50_ms"]; a.ok && b.ok {
		o.set("trace.overhead_p50_frac", b.v/a.v-1)
	}
	if o.selfOps > 0 {
		for name, ns := range env.spans.selfTimes(o.selfFrom, o.selfTo) {
			o.set("self."+name+"_us_per_op", float64(ns)/1e3/o.selfOps)
		}
	}
	dump := filepath.Join(scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, seed))
	if err := env.spans.writeJSONL(dump); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stdout, "spans written to %s\n", dump)
	printTable(stdout, "traced pass, end-to-end (not the gated figures)", endToEnd, o)
	printTable(stdout, "per-layer", perLayer, o)
	return printResult(stdout, o, perLayer, false)
}

// checkOutcome prints the violations of an incorrect pass, together with
// a result line reporting it, and returns errIncorrect.
func checkOutcome(o *outcome, stdout io.Writer) error {
	if len(o.violations) == 0 {
		return nil
	}
	for i, v := range o.violations {
		if i == 20 {
			fmt.Fprintf(stdout, "  ... %d more\n", len(o.violations)-i)
			break
		}
		fmt.Fprintf(stdout, "violation: %s\n", v)
	}
	line, _ := json.Marshal(result{Correct: false, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]resultMetric{}})
	fmt.Fprintf(stdout, "%s\n", line)
	return errIncorrect
}

func printTable(w io.Writer, title string, defs []metricDef, o *outcome) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, d := range defs {
		v, present := o.metrics[d.name]
		switch {
		case !present:
			continue
		case !v.ok && math.IsInf(v.v, 1):
			fmt.Fprintf(w, "  %-30s among the failed ops (n=%d)\n", d.name, v.n)
		case !v.ok:
			fmt.Fprintf(w, "  %-30s withheld (n=%d, fewer than %d beyond)\n", d.name, v.n, minBeyond)
		case v.n > 0:
			fmt.Fprintf(w, "  %-30s %14.6g %-6s n=%d\n", d.name, v.v, d.unit, v.n)
		default:
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, v.v, d.unit)
		}
	}
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// printResult prints the JSON result line over defs. With required set,
// every metric must have been measured: a gated metric that was withheld
// means the run was too short to support it.
func printResult(w io.Writer, o *outcome, defs []metricDef, required bool) error {
	r := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]resultMetric)}
	for _, d := range defs {
		v := o.metrics[d.name]
		if !v.ok && required {
			return fmt.Errorf("%s was not measured (n=%d): too few samples beyond it, or it falls among failed ops", d.name, v.n)
		}
		if !v.ok {
			v.v = 0
		}
		r.Metrics[d.name] = resultMetric{Value: v.v, Unit: d.unit}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// summarizeResults reads result lines — lines that parse as a result
// object; everything else is skipped — and prints, per metric, the
// median, the quartiles and the quartile spread as a share of the median.
func summarizeResults(paths []string, w io.Writer) error {
	values := make(map[string][]float64)
	units := make(map[string]string)
	runs := 0
	read := func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var res result
			if json.Unmarshal(sc.Bytes(), &res) != nil || res.Metrics == nil {
				continue
			}
			runs++
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		return sc.Err()
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		err = read(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if runs == 0 {
		return fmt.Errorf("no result lines found")
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs\n%-30s %14s %14s %14s %8s  unit\n", runs, "metric", "q1", "median", "q3", "iqr/med")
	for _, n := range names {
		q1, med, q3 := quartiles(values[n])
		spread := math.NaN()
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Fprintf(w, "%-30s %14.6g %14.6g %14.6g %8.4f  %s\n", n, q1, med, q3, spread, units[n])
	}
	return nil
}
