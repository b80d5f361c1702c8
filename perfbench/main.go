// Command perfbench is the repository's end-to-end benchmark. One run
// drives one named workload through the public entry points of the
// scenario, workload, core, sched, sim and server packages, checks the
// program's outputs, and prints one JSON result line:
//
//	perfbench --workload offline-greedy|stream-deep|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no tracing wrappers installed. With --trace 1 the benchmark's
// own wrappers time every call into each layer and the result carries
// the per-layer metrics instead; the spans are written under --out.
// README.md gives the workload rationale and the metric definitions.
package main

import (
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
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef is one metric's name and the unit printed beside it.
type metricDef struct {
	name, unit string
}

// endToEnd and perLayer are the metric contract: every run prints
// every name of its set (BENCHMARK.json lists the same names).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"cpu_us_per_job", "us"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"scenario.build_ms", "ms"},
	{"workload.gen_ns_per_job", "ns"},
	{"workload.decode_ns_per_job", "ns"},
	{"core.assign_ns_per_job", "ns"},
	{"core.assign_share", "ratio"},
	{"sched.assign_ns_per_job", "ns"},
	{"sim.loop_ns_per_event", "ns"},
	{"sim.events_per_job", "count"},
	{"sim.parallel_speedup", "x"},
	{"sim.encode_ns_per_job", "ns"},
	{"sim.encode_bytes_per_job", "B"},
	{"sim.allocs_per_job", "count"},
	{"server.post_ms_p50", "ms"},
	{"server.post_ms_p99", "ms"},
	{"server.jobs_per_post", "count"},
	{"server.lines_per_read", "count"},
	{"server.drain_ms", "ms"},
	{"server.backlog_max", "work"},
	{"server.shed_jobs", "count"},
	{"server.tax_ns_per_job", "ns"},
	{"server.accounted_frac", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"gen.ack_p50_ms", "ms"},
	{"gen.ack_p99_ms", "ms"},
	{"gen.ack_samples", "count"},
	{"gen.lag_p50_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"gen.lag_samples", "count"},
	{"gen.late_ms_p99", "ms"},
	{"trace.overhead", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"offline-greedy": offlineGreedy,
	"stream-deep":    streamDeep,
	"serve":          serve,
}

// setupRounds is how many times each workload sets itself up; setup_s
// is the median round, so one slow round does not move it.
const setupRounds = 5

// runDeadline bounds one run's wall time.
const runDeadline = 170 * time.Second

// bench is one benchmark invocation: its settings, what it measured,
// and what its output checks found.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale multiplies every job count (the self-test runs at a tiny
	// scale; results at other scales are not comparable).
	scale float64
	nproc int

	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
	info      map[string]any
	tracer    *tracer
}

// jobs scales a full-size job count, keeping at least a few hundred.
func (r *bench) jobs(full int) int {
	return max(int(math.Round(float64(full)*r.scale)), 200)
}

// set records a metric value.
func (r *bench) set(name string, v float64) { r.metrics[name] = v }

// check counts one output check and records it when it fails.
func (r *bench) check(ok bool, format string, a ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, a...))
	}
}

// ops counts attempted operations and the ones that failed or were
// refused.
func (r *bench) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: offline-greedy, stream-deep or serve")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long the timed part of the run measures")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	scale := fs.Float64("scale", 1, "job-count multiplier (for quick self-tests only)")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench", "out"), "directory for the span files of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || *scale <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload offline-greedy|stream-deep|serve, --seconds > 0, --trace 0|1 (got %q, %g, %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	r := &bench{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceFlag == 1,
		scale:    *scale,
		nproc:    runtime.GOMAXPROCS(0),
		metrics:  map[string]float64{},
		info:     map[string]any{},
	}
	if r.trace {
		r.tracer = &tracer{}
	}
	// A run must end well inside the three minutes it is allowed; a
	// hung daemon or client ends it here instead, with no result.
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(stderr, "perfbench: %s: still running after %v, giving up\n", r.workload, runDeadline)
		os.Exit(3)
	})
	defer watchdog.Stop()
	meta, err := runMeta(r)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := drive(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	meta["run"] = r.info
	if r.trace {
		path, err := r.tracer.write(*out, r, meta)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		meta["spans"] = path
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", r.workload, p)
	}
	metaLine, err := json.Marshal(meta)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench meta %s\n", metaLine)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result assembles the printed result, insisting that the run
// measured every metric of its set.
func (r *bench) result() (result, error) {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// median returns the middle value (the mean of the middle two for an
// even count). xs must be non-empty; it is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// which must be sorted and non-empty.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// latencies reports a latency's p50 and p99 as gen.<name>_p50_ms and
// gen.<name>_p99_ms: each is the median over windows (stretches of the
// run) of the window's percentile. The sample count is recorded beside
// them.
func (r *bench) latencies(name string, windows [][]float64) {
	var p50, p99 []float64
	samples := 0
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		sort.Float64s(w)
		p50 = append(p50, percentile(w, 0.50))
		p99 = append(p99, percentile(w, 0.99))
		samples += len(w)
	}
	if samples == 0 {
		r.check(false, "%s: no latency samples", name)
		return
	}
	prefix := "gen." + name
	r.set(prefix+"_p50_ms", median(p50))
	r.set(prefix+"_p99_ms", median(p99))
	r.set(prefix+"_samples", float64(samples))
	r.info[name+"_p50_ms"] = r.metrics[prefix+"_p50_ms"]
	r.info[name+"_p99_ms"] = r.metrics[prefix+"_p99_ms"]
	r.info[name+"_samples"] = samples
	r.info[name+"_windows"] = len(p50)
}

// repeat runs once, one repetition of n jobs returning what its timed
// call cost, until the timed part has measured --seconds (a traced run
// stops after one). It then records jobs_per_s, cpu_us_per_job and the
// run length, and returns the first repetition's wall time.
func (r *bench) repeat(n int, once func(rep int) (cost, error)) (int64, error) {
	var (
		rates           []float64
		measured, first int64
		cpu             float64
	)
	for rep := 0; rep == 0 || (!r.trace && float64(measured) < r.seconds*1e9); rep++ {
		c, err := once(rep)
		if err != nil {
			return 0, fmt.Errorf("rep %d: %w", rep, err)
		}
		if rep == 0 {
			first = c.wallNS
		}
		measured += c.wallNS
		cpu += c.cpuS
		rates = append(rates, float64(n)/(float64(c.wallNS)/1e9))
	}
	r.info["reps"] = len(rates)
	r.info["jobs_per_rep"] = n
	r.info["measured_s"] = float64(measured) / 1e9
	r.set("cpu_us_per_job", cpu*1e6/float64(n*len(rates)))
	r.setRate(rates)
	return first, nil
}

// setRate records jobs_per_s as the median of a run's repetition
// rates, and every repetition's rate in the run metadata.
func (r *bench) setRate(rates []float64) {
	r.info["rep_jobs_per_s"] = append([]float64(nil), rates...)
	r.set("jobs_per_s", median(rates))
}

// timeSetup runs fn setupRounds times and records the median as
// setup_s; the last round's state is what the run keeps.
func (r *bench) timeSetup(fn func() error) error {
	var ds []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(ds))
	return nil
}
