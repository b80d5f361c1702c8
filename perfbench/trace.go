package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"treesched/internal/sim"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// epoch anchors now: time.Since reads the monotonic clock only.
var epoch = time.Now()

// now is the benchmark's clock, in nanoseconds since start.
func now() int64 { return int64(time.Since(epoch)) }

func msOf(ns int64) float64 { return float64(ns) / 1e6 }

// maxRawSpans bounds the raw spans kept per layer; the totals cover
// every span.
const maxRawSpans = 4096

// layerSpans accumulates the spans of one layer boundary: every span
// is named by the layer and caused by its parent layer, and runs from
// a start to an end time. Each is written by one goroutine at a time
// and read once the run it timed has ended.
type layerSpans struct {
	name, parent string
	count        int64
	total        int64
	raw          [][2]int64 // start and end, in ns since the run began
}

func (l *layerSpans) add(start, end int64) {
	l.count++
	l.total += end - start
	if len(l.raw) < maxRawSpans {
		l.raw = append(l.raw, [2]int64{start, end})
	}
}

// tracer holds the spans of a traced run in memory until the run ends.
type tracer struct {
	layers []*layerSpans
}

// layer returns a fresh span accumulator for one layer boundary.
func (t *tracer) layer(name, parent string) *layerSpans {
	l := &layerSpans{name: name, parent: parent}
	t.layers = append(t.layers, l)
	return l
}

// self is a span set's total minus the part its children cover: the
// children are the given accumulators, all recorded inside parent.
func self(parent *layerSpans, children ...*layerSpans) int64 {
	s := parent.total
	for _, c := range children {
		s -= c.total
	}
	return s
}

// write saves every layer's totals and raw spans as one JSON file.
func (t *tracer) write(dir string, r *bench, meta map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type layerOut struct {
		Name    string     `json:"name"`
		Parent  string     `json:"parent"`
		Count   int64      `json:"count"`
		TotalNS int64      `json:"total_ns"`
		Spans   [][2]int64 `json:"spans"`
	}
	out := struct {
		Meta    map[string]any     `json:"meta"`
		Metrics map[string]float64 `json:"metrics"`
		Layers  []layerOut         `json:"layers"`
	}{Meta: meta, Metrics: r.metrics}
	for _, l := range t.layers {
		out.Layers = append(out.Layers, layerOut{l.name, l.parent, l.count, l.total, l.raw})
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", r.workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(out); err != nil {
		f.Close()
		return "", err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedAssigner times every Assign call.
type tracedAssigner struct {
	inner sim.Assigner
	spans *layerSpans
}

func (a *tracedAssigner) Name() string { return a.inner.Name() }

func (a *tracedAssigner) Assign(q *sim.Query, j *sim.Arrival) tree.NodeID {
	t0 := now()
	leaf := a.inner.Assign(q, j)
	a.spans.add(t0, now())
	return leaf
}

// obliviousAssigner re-attaches the sim.ObliviousAssigner marker to a
// wrapper, so an oblivious assigner keeps the engine's oblivious path.
type obliviousAssigner struct{ sim.Assigner }

func (obliviousAssigner) ObliviousAssigner() {}

// traceAssigner wraps inner in a tracedAssigner, marked oblivious when
// inner is.
func traceAssigner(inner sim.Assigner, spans *layerSpans) sim.Assigner {
	w := &tracedAssigner{inner: inner, spans: spans}
	if _, ok := inner.(sim.ObliviousAssigner); ok {
		return obliviousAssigner{w}
	}
	return w
}

// tracedSource times every Next call of an arrival source.
type tracedSource struct {
	inner workload.ArrivalSource
	spans *layerSpans
}

func (s *tracedSource) Next() (workload.Job, bool) {
	t0 := now()
	j, ok := s.inner.Next()
	s.spans.add(t0, now())
	return j, ok
}

func (s *tracedSource) Err() error { return s.inner.Err() }

// limitSource yields at most n jobs of its source (warm-up runs).
type limitSource struct {
	inner workload.ArrivalSource
	n     int
}

func (s *limitSource) Next() (workload.Job, bool) {
	if s.n == 0 {
		return workload.Job{}, false
	}
	s.n--
	return s.inner.Next()
}

func (s *limitSource) Err() error { return s.inner.Err() }

// tracedSink times every Emit call of a job sink.
type tracedSink struct {
	inner sim.JobSink
	spans *layerSpans
}

func (k *tracedSink) Emit(m *sim.JobMetrics) error {
	t0 := now()
	err := k.inner.Emit(m)
	k.spans.add(t0, now())
	return err
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest is the discard writer that stands in for a result file: it
// counts bytes and lines and folds them into a CRC-32C, so two runs'
// outputs can be compared without keeping them.
type digest struct {
	bytes, lines int64
	crc          uint32
}

func (d *digest) Write(p []byte) (int, error) {
	d.bytes += int64(len(p))
	d.lines += int64(bytes.Count(p, []byte{'\n'}))
	d.crc = crc32.Update(d.crc, castagnoli, p)
	return len(p), nil
}

func (d *digest) String() string {
	return fmt.Sprintf("%d lines, %d bytes, crc32c %08x", d.lines, d.bytes, d.crc)
}

// digestJobs digests per-job results as the NDJSON a sink would write.
func digestJobs(jobs []sim.JobMetrics) (digest, error) {
	var d digest
	var buf []byte
	for i := range jobs {
		var err error
		if buf, err = sim.AppendJobMetrics(buf[:0], &jobs[i]); err != nil {
			return d, err
		}
		buf = append(buf, '\n')
		d.Write(buf)
	}
	return d, nil
}

// rtSnap is a snapshot of the Go runtime's counters.
type rtSnap struct {
	mallocs       uint64
	numGC         uint32
	gcCPU, allCPU float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	return rtSnap{ms.Mallocs, ms.NumGC, cpuMetrics[0].Value.Float64(), cpuMetrics[1].Value.Float64()}
}

// cost is what one timed call took: host wall time, and the process's
// CPU time over all its threads.
type cost struct {
	start, wallNS int64
	cpuS          float64
}

func measure(fn func()) cost {
	c0, t0 := cpuSeconds(), now()
	fn()
	return cost{t0, now() - t0, cpuSeconds() - c0}
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runtimeMetrics records allocations per job, GC cycles and the GC's
// share of CPU time between two snapshots.
func (r *bench) runtimeMetrics(a, b rtSnap, jobs int) {
	r.set("sim.allocs_per_job", float64(b.mallocs-a.mallocs)/float64(jobs))
	r.set("runtime.gc_cycles", float64(b.numGC-a.numGC))
	share := 0.0
	if cpu := b.allCPU - a.allCPU; cpu > 0 {
		share = (b.gcCPU - a.gcCPU) / cpu
	}
	r.set("runtime.gc_cpu_share", share)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// recordPeakRSS sets peak_rss_mb; runs call it after their timed part
// and before their output checks, which need more memory.
func (r *bench) recordPeakRSS() error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", mb)
	return nil
}

// runMeta describes the machine, the toolchain and the code under
// test, so a stale or cross-machine number is visible on sight.
func runMeta(r *bench) (map[string]any, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	src, err := sourceDigest(root)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"workload":      r.workload,
		"seed":          r.seed,
		"seconds":       r.seconds,
		"trace":         r.trace,
		"scale":         r.scale,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        gitCommit(root),
		"source_sha256": src,
	}, nil
}

// moduleRoot finds the directory of the module under test: the
// nearest ancestor of the working directory whose go.mod declares
// module treesched.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module treesched\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no treesched module at or above the working directory")
		}
		dir = parent
	}
}

// gitCommit resolves HEAD from the .git directory, without running
// git; a checkout that is not a repository reports "none" and is
// identified by its source digest alone.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (hidden
// directories skipped), in path order.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
