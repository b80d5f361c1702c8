package main

import (
	"fmt"
	"time"

	"treesched/internal/scenario"
	"treesched/internal/sim"
	"treesched/internal/workload"
)

// Full-scale job counts. offline-greedy keeps every job (full
// retention), so its count is bounded by memory; stream-deep's memory
// is flat in its count.
const (
	offlineJobs = 250_000
	streamJobs  = 1_000_000
	// warmJobs is the length of the warm-up run that ends each setup
	// round.
	warmJobs = 20_000
)

// notMeasured sets per-layer metrics a workload does not exercise to
// 0, so every traced run prints the whole set.
func (r *bench) notMeasured(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// buildScenario parses and builds a compact scenario.
func buildScenario(spec string) (*scenario.Instance, error) {
	sc, err := scenario.ParseCompact(spec)
	if err != nil {
		return nil, err
	}
	return sc.Build()
}

// offlineGreedy is `treesched -shards 0` on the wide fat tree: the
// paper's greedy rule dispatching an in-memory Poisson trace, every
// job retained, the sharded engine on every CPU.
func offlineGreedy(r *bench) error {
	n := r.jobs(offlineJobs)
	spec := fmt.Sprintf("topo=fattree:8,1,2 speed=1.5 n=%d load=0.95 size=uniform:1,16 class=0.5 policy=sjf assigner=greedy-identical shards=%d seed=%d", n, r.nproc, r.seed)
	var (
		in     *scenario.Instance
		s      *sim.Sim
		builds []float64
	)
	err := r.timeSetup(func() error {
		t0 := time.Now()
		var err error
		if in, err = buildScenario(spec); err != nil {
			return err
		}
		builds = append(builds, msSince(t0))
		s = sim.New(in.Tree, in.Opts)
		asg, err := in.NewAssigner()
		if err != nil {
			return err
		}
		_, err = sim.RunOn(s, &workload.Trace{Jobs: in.Trace.Jobs[:min(warmJobs, n)]}, asg)
		return err
	})
	if err != nil {
		return err
	}
	r.set("scenario.build_ms", median(builds))
	r.info["scenario"] = spec

	// runOnce replays the whole trace on the warm engine; wrap installs
	// the benchmark's assigner wrapper around a fresh greedy assigner.
	runOnce := func(s *sim.Sim, opts sim.Options, wrap func(sim.Assigner) sim.Assigner) (res *sim.Result, c cost, err error) {
		asg, err := in.NewAssigner()
		if err != nil {
			return nil, c, err
		}
		s.Reset(opts)
		c = measure(func() { res, err = sim.RunOn(s, in.Trace, wrap(asg)) })
		return res, c, err
	}
	plain := func(a sim.Assigner) sim.Assigner { return a }

	var ref digest
	untracedNS, err := r.repeat(n, func(rep int) (cost, error) {
		res, c, err := runOnce(s, in.Opts, plain)
		if err != nil {
			return c, err
		}
		r.ops(int64(n), int64(n-res.Stats.Completed))
		r.check(res.Stats.Completed == n, "rep %d: %d of %d jobs completed", rep, res.Stats.Completed, n)
		switch rep {
		case 0:
			ref, err = digestJobs(res.Jobs)
		case 1:
			// A warm repetition must reproduce the first one's output.
			dg, err := digestJobs(res.Jobs)
			r.check(err == nil && dg == ref, "rep 1 output (%v) differs from rep 0's (%v)", &dg, &ref)
		}
		return c, err
	})
	if err != nil {
		return err
	}
	if err := r.recordPeakRSS(); err != nil {
		return err
	}

	if r.trace {
		t := r.tracer
		runSpans := t.layer("sim.run", "")
		assign := t.layer("core.assign", "sim.run")
		a := readRuntime()
		res, c, err := runOnce(s, in.Opts, func(asg sim.Assigner) sim.Assigner { return traceAssigner(asg, assign) })
		d := c.wallNS
		b := readRuntime()
		if err != nil {
			return err
		}
		runSpans.add(c.start, c.start+c.wallNS)
		events := float64(res.Stats.Events)
		r.set("core.assign_ns_per_job", float64(assign.total)/float64(n))
		r.set("core.assign_share", float64(assign.total)/float64(d))
		r.set("sim.loop_ns_per_event", float64(self(runSpans, assign))/events)
		r.set("sim.events_per_job", events/float64(n))
		r.set("trace.overhead", float64(d)/float64(untracedNS)-1)
		r.runtimeMetrics(a, b, n)
		dg, err := digestJobs(res.Jobs)
		r.check(err == nil && dg == ref, "traced output (%v) differs from untraced (%v)", &dg, &ref)

		// The same trace on one worker: the parallel engine's speedup.
		seq := in.Opts
		seq.Workers = 1
		_, c1, err := runOnce(sim.New(in.Tree, seq), seq, plain)
		if err != nil {
			return err
		}
		r.set("sim.parallel_speedup", float64(c1.wallNS)/float64(untracedNS))

		// The generator on its own: the same jobs drawn one at a time.
		lazy, err := buildScenario(spec + " stream")
		if err != nil {
			return err
		}
		src, err := lazy.NewSource()
		if err != nil {
			return err
		}
		gen := &tracedSource{inner: src, spans: t.layer("workload.gen", "")}
		same := 0
		for i := range in.Trace.Jobs {
			j, ok := gen.Next()
			if ok && sameJob(&j, &in.Trace.Jobs[i]) {
				same++
			}
		}
		r.check(same == n, "streamed generator matched %d of %d trace jobs", same, n)
		r.set("workload.gen_ns_per_job", float64(gen.spans.total)/float64(n))
		r.notMeasured("sched.assign_ns_per_job", "sim.encode_ns_per_job", "sim.encode_bytes_per_job",
			"workload.decode_ns_per_job")
		r.notMeasured(genMetrics...)
		r.notMeasured(serverMetrics...)
	}

	// Output check: an instrumented, slice-recording sequential pass of
	// the same trace. Drain audits the recorded schedule itself when
	// Instrument and RecordSlices are both on (an *AuditError otherwise).
	audited := in.Opts
	audited.Workers, audited.Instrument, audited.RecordSlices = 1, true, true
	asg, err := in.NewAssigner()
	if err != nil {
		return err
	}
	res, err := sim.Run(in.Tree, in.Trace, asg, audited)
	r.check(err == nil && len(res.Sim.Slices()) > 0, "audited pass: %v", err)
	if err == nil {
		dg, err := digestJobs(res.Jobs)
		r.check(err == nil && dg == ref, "audited pass output (%v) differs from the timed run's (%v)", &dg, &ref)
	}
	return nil
}

// genMetrics are the load generator's metrics, which only the serve
// workload has.
var genMetrics = []string{
	"gen.ack_p50_ms", "gen.ack_p99_ms", "gen.ack_samples",
	"gen.lag_p50_ms", "gen.lag_p99_ms", "gen.lag_samples", "gen.late_ms_p99",
}

// serverMetrics are the per-layer metrics only the serve workload has.
var serverMetrics = []string{
	"server.post_ms_p50", "server.post_ms_p99", "server.jobs_per_post", "server.lines_per_read",
	"server.drain_ms", "server.backlog_max", "server.shed_jobs", "server.tax_ns_per_job",
	"server.accounted_frac",
}

// streamDeep is `treesched -stream -retain 1 -result` on a depth-6 fat
// tree: about a million jobs pulled one at a time from the Poisson
// generator, oblivious round-robin dispatch, every completion encoded
// as NDJSON into a discard writer, constant memory.
func streamDeep(r *bench) error {
	n := r.jobs(streamJobs)
	spec := fmt.Sprintf("topo=fattree:2,5,1 speed=1.5 n=%d load=0.95 size=uniform:1,16 class=0.5 policy=sjf assigner=roundrobin stream retain=1 seed=%d", n, r.seed)
	var (
		in     *scenario.Instance
		s      *sim.Sim
		builds []float64
	)
	err := r.timeSetup(func() error {
		t0 := time.Now()
		var err error
		if in, err = buildScenario(spec); err != nil {
			return err
		}
		builds = append(builds, msSince(t0))
		opts := in.Opts
		opts.Sink = sim.NewNDJSONSink(&digest{})
		s = sim.New(in.Tree, opts)
		src, err := in.NewSource()
		if err != nil {
			return err
		}
		asg, err := in.NewAssigner()
		if err != nil {
			return err
		}
		_, err = sim.RunStreamOn(s, &limitSource{inner: src, n: min(warmJobs, n)}, asg)
		return err
	})
	if err != nil {
		return err
	}
	r.set("scenario.build_ms", median(builds))
	r.info["scenario"] = spec

	// pass streams the whole workload once; with spans set, the source,
	// assigner and sink are traced.
	type passSpans struct{ gen, assign, encode *layerSpans }
	pass := func(sp *passSpans) (res *sim.Result, dg digest, c cost, err error) {
		src, err := in.NewSource()
		if err != nil {
			return nil, dg, c, err
		}
		asg, err := in.NewAssigner()
		if err != nil {
			return nil, dg, c, err
		}
		var sink sim.JobSink = sim.NewNDJSONSink(&dg)
		if sp != nil {
			src = &tracedSource{inner: src, spans: sp.gen}
			sink = &tracedSink{inner: sink, spans: sp.encode}
			asg = traceAssigner(asg, sp.assign)
		}
		opts := in.Opts
		opts.Sink = sink
		s.Reset(opts)
		c = measure(func() { res, err = sim.RunStreamOn(s, src, asg) })
		return res, dg, c, err
	}
	completed := func(res *sim.Result) int {
		if res == nil || res.Stream == nil {
			return 0
		}
		return res.Stream.Completed
	}

	var ref digest
	untracedNS, err := r.repeat(n, func(rep int) (cost, error) {
		res, dg, c, err := pass(nil)
		if err != nil {
			return c, err
		}
		r.ops(int64(n), int64(n-completed(res)))
		r.check(completed(res) == n && dg.lines == int64(n), "rep %d: %d completed, %d sink lines, want %d", rep, completed(res), dg.lines, n)
		if rep == 0 {
			ref = dg
		} else {
			r.check(dg == ref, "rep %d output (%v) differs from rep 0's (%v)", rep, &dg, &ref)
		}
		return c, nil
	})
	if err != nil {
		return err
	}
	if err := r.recordPeakRSS(); err != nil {
		return err
	}

	// The traced pass runs in every run: its sink bytes must equal the
	// untraced passes'. Only a traced run reports its spans.
	t := r.tracer
	if t == nil {
		t = &tracer{}
	}
	runSpans := t.layer("sim.run", "")
	sp := &passSpans{
		gen:    t.layer("workload.gen", "sim.run"),
		assign: t.layer("sched.assign", "sim.run"),
		encode: t.layer("sim.encode", "sim.run"),
	}
	a := readRuntime()
	res, dg, c, err := pass(sp)
	d := c.wallNS
	b := readRuntime()
	r.check(err == nil && completed(res) == n && dg == ref, "traced pass: output (%v) differs from untraced (%v) (%v)", &dg, &ref, err)
	if !r.trace || err != nil {
		return nil
	}
	runSpans.add(c.start, c.start+c.wallNS)
	events := float64(res.Stats.Events)
	r.set("workload.gen_ns_per_job", float64(sp.gen.total)/float64(n))
	r.set("sched.assign_ns_per_job", float64(sp.assign.total)/float64(n))
	r.set("sim.encode_ns_per_job", float64(sp.encode.total)/float64(n))
	r.set("sim.encode_bytes_per_job", float64(dg.bytes)/float64(n))
	r.set("sim.loop_ns_per_event", float64(self(runSpans, sp.gen, sp.assign, sp.encode))/events)
	r.set("sim.events_per_job", events/float64(n))
	r.set("trace.overhead", float64(d)/float64(untracedNS)-1)
	r.runtimeMetrics(a, b, n)
	r.notMeasured("core.assign_ns_per_job", "core.assign_share", "sim.parallel_speedup",
		"workload.decode_ns_per_job")
	r.notMeasured(genMetrics...)
	r.notMeasured(serverMetrics...)
	return nil
}

// sameJob compares two identical-machine jobs field by field.
func sameJob(a, b *workload.Job) bool {
	return a.ID == b.ID && a.Release == b.Release && a.Size == b.Size && a.Weight == b.Weight &&
		a.Origin == b.Origin && a.LeafSizes == nil && b.LeafSizes == nil
}
