// Command treesched runs one simulation of the tree network
// scheduling model and reports flow-time metrics.
//
// Usage:
//
//	treesched -topo fattree:2,2,2 -n 2000 -load 0.9 -assigner greedy \
//	          -policy sjf -speed 1.5 -eps 0.5 -seed 1 [-unrelated]
//	          [-faults outages:4,50] [-recovery redispatch] [-audit]
//	          [-shards 0] [-render] [-gantt] [-trace jobs.json]
//	          [-stream] [-retain 1000]
//	treesched -scenario run.json            # or a compact one-liner file
//	treesched -topo star:4 -n 500 -dump-scenario > run.json
//	treesched -topo fattree:2,2,2 -n 4000 -fleet 4 -fleetpolicy jsq \
//	          [-faults brownouts:2,20,0.5] [-scorecard card.json]
//
// The individual flags assemble a scenario.Scenario; -scenario loads
// one from a file (JSON or the compact one-line form) instead, and
// -dump-scenario prints the assembled scenario as JSON without
// running it. -faults/-recovery apply to either path (they override a
// scenario file's fault section).
//
// Topologies: fattree:arity,depth,leaves | star:n | line:n |
// caterpillar:spine,leaves | broomstick:branches,handle,leaves |
// random:branches,maxdepth,maxchildren.
// Assigners: greedy | shadow | closest | random | roundrobin |
// leastvolume | minpath | jsq.
// Policies: sjf | fifo | srpt | lcfs | ps | wsjf.
// Fault plans: outages:count,dur | brownouts:count,dur,factor |
// leafloss:count,frac.
//
// -fleet N runs N copies of the tree (or a scenario's fleet section)
// behind a front-door router instead of a single instance; fault
// plans are then drawn independently per tree. Fleet routing
// policies: rr | jsq | local.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"treesched/internal/core"
	"treesched/internal/fleet"
	"treesched/internal/lowerbound"
	"treesched/internal/metrics"
	"treesched/internal/scenario"
	"treesched/internal/sim"
	"treesched/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process boundary, so error paths are testable:
// it returns the exit code (0 ok, 1 runtime error, 2 flag error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("treesched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topo := fs.String("topo", "fattree:2,2,2", "topology spec")
	n := fs.Int("n", 2000, "number of jobs")
	load := fs.Float64("load", 0.9, "offered load vs root capacity")
	assigner := fs.String("assigner", "greedy", "leaf assignment policy")
	policy := fs.String("policy", "sjf", "node scheduling policy")
	speed := fs.Float64("speed", 1.5, "uniform node speed (resource augmentation)")
	eps := fs.Float64("eps", 0.5, "greedy rule epsilon / size class base-1")
	seed := fs.Uint64("seed", 1, "random seed")
	unrelated := fs.Bool("unrelated", false, "unrelated leaf processing times")
	packetized := fs.Bool("packetized", false, "unit-packet forwarding mode")
	render := fs.Bool("render", false, "print the topology before running")
	dot := fs.String("dot", "", "write the topology as Graphviz dot to this file")
	checkLemmas := fs.Bool("checklemmas", false, "validate Lemma 1/2 bounds during the run (with the individual flags, forces the lemma speed profile: 1x root-adjacent, (1+eps)x elsewhere)")
	gantt := fs.Bool("gantt", false, "print an ASCII Gantt chart (instrumented)")
	audit := fs.Bool("audit", false, "record exact slices and audit the finished schedule for conformance")
	faultSpec := fs.String("faults", "", "fault plan spec (outages:count,dur | brownouts:count,dur,factor | leafloss:count,frac)")
	recovery := fs.String("recovery", "", "leaf-loss recovery policy: hold | redispatch")
	traceOut := fs.String("trace", "", "write the generated workload trace to this JSON file")
	resultOut := fs.String("result", "", "write per-job results to this JSON file (NDJSON for streamed or very large runs)")
	stream := fs.Bool("stream", false, "run through the streaming pipeline: generated workloads are drawn one job at a time and never materialized (results are identical)")
	retain := fs.Int("retain", 0, "keep only the last N per-job records and recycle engine state at each completion: memory becomes independent of -n (0 = keep all)")
	scenFile := fs.String("scenario", "", "load the scenario from this file (JSON or compact form) instead of the individual flags")
	dump := fs.Bool("dump-scenario", false, "print the scenario as JSON and exit without running")
	fleetN := fs.Int("fleet", 0, "run a fleet of N tree instances behind a front-door router (0 = single tree)")
	fleetPolicy := fs.String("fleetpolicy", "", "cross-tree routing policy: rr | jsq | local (implies -fleet with a scenario fleet section)")
	fleetWorkers := fs.Int("fleetworkers", 0, "trees simulated concurrently in a fleet run (0 = auto; results identical at any value)")
	scorecardOut := fs.String("scorecard", "", "write the fleet scorecard as JSON to this file")
	var shards int
	const shardsHelp = "subtree-shard worker count for oblivious assigners (state-querying assigners and -stream always run sequentially): 0 = auto (GOMAXPROCS), 1 = sequential (results are identical either way)"
	fs.IntVar(&shards, "shards", 1, shardsHelp)
	fs.IntVar(&shards, "parallel", 1, shardsHelp+" (alias of -shards)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "treesched:", err)
		return 1
	}
	if shards < 0 {
		return fail(fmt.Errorf("-shards: worker count %d is negative (0 = auto, 1 = sequential)", shards))
	}
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	// Whether -shards/-parallel (and the streaming knobs) were given
	// explicitly decides if they override a scenario file's engine
	// settings.
	shardsSet, streamSet, retainSet := false, false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "shards", "parallel":
			shardsSet = true
		case "stream":
			streamSet = true
		case "retain":
			retainSet = true
		}
	})

	var sc *scenario.Scenario
	if *scenFile != "" {
		data, err := os.ReadFile(*scenFile)
		if err != nil {
			return fail(err)
		}
		if sc, err = scenario.Load(data); err != nil {
			return fail(err)
		}
		if shardsSet {
			sc.Engine.Shards = shards
		}
		if streamSet {
			sc.Engine.Stream = *stream
		}
		if retainSet {
			sc.Engine.RetainJobs = *retain
		}
	} else {
		topoSpec, err := scenario.ParseSpec(*topo)
		if err != nil {
			return fail(err)
		}
		sc = &scenario.Scenario{
			Topology: topoSpec,
			Workload: scenario.Workload{
				N:        *n,
				Size:     scenario.NewSpec("uniform", 1, 16),
				ClassEps: *eps,
				Load:     *load,
			},
			Policy:   *policy,
			Assigner: *assigner,
			Eps:      *eps,
			Seed:     *seed,
			Engine: scenario.Engine{
				Packetized: *packetized,
				Instrument: *gantt || *checkLemmas,
				Shards:     shards,
				Stream:     *stream,
				RetainJobs: *retain,
			},
		}
		if *unrelated {
			sc.Workload.Unrelated = &scenario.Unrelated{Lo: 0.5, Hi: 2}
			sc.Workload.RoundEps = *eps
		}
		if *checkLemmas {
			// Lemmas 1-2 assume speed 1 on root-adjacent nodes and at
			// least 1+eps elsewhere.
			sc.Speed = scenario.Speed{RootAdjacent: 1, Router: 1 + *eps, Leaf: 1 + *eps}
		} else {
			sc.Speed = scenario.Speed{Uniform: *speed}
		}
	}
	if *faultSpec != "" {
		plan, err := scenario.ParseSpec(*faultSpec)
		if err != nil {
			return fail(fmt.Errorf("-faults: %v", err))
		}
		sc.Faults = &scenario.FaultSpec{Plan: plan}
	}
	if *recovery != "" {
		if sc.Faults == nil {
			return fail(fmt.Errorf("-recovery needs -faults (or a scenario with a fault section)"))
		}
		sc.Faults.Recovery = *recovery
	}
	if *fleetN > 0 {
		if sc.Fleet == nil {
			sc.Fleet = &scenario.FleetSpec{}
		}
		sc.Fleet.Trees = *fleetN
	}
	if *fleetPolicy != "" {
		if sc.Fleet == nil {
			return fail(fmt.Errorf("-fleetpolicy needs -fleet (or a scenario with a fleet section)"))
		}
		sc.Fleet.Policy = *fleetPolicy
	}
	if sc.Engine.RetainJobs > 0 {
		// Bounded retention discards the per-task state these reports
		// are built from (full slice/task introspection, per-job lemma
		// ratios).
		switch {
		case *audit:
			return fail(fmt.Errorf("-audit needs full task retention (drop -retain)"))
		case *gantt:
			return fail(fmt.Errorf("-gantt needs full task retention (drop -retain)"))
		case *checkLemmas:
			return fail(fmt.Errorf("-checklemmas needs full per-job retention (drop -retain)"))
		}
	}
	if *dump {
		if err := sc.WriteJSON(stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if sc.Fleet != nil {
		singleTree := []struct {
			name string
			set  bool
		}{
			{"-render", *render}, {"-gantt", *gantt}, {"-audit", *audit},
			{"-checklemmas", *checkLemmas}, {"-trace", *traceOut != ""},
			{"-result", *resultOut != ""}, {"-dot", *dot != ""},
		}
		for _, f := range singleTree {
			if f.set {
				return fail(fmt.Errorf("%s is a single-tree report (drop it for fleet runs)", f.name))
			}
		}
		return runFleet(sc, *fleetWorkers, *scorecardOut, stdout, fail)
	}

	in, err := sc.Build()
	if err != nil {
		return fail(err)
	}
	if *render {
		fmt.Fprint(stdout, trace.RenderTree(in.Base))
	}
	if *dot != "" {
		if err := os.WriteFile(*dot, []byte(trace.DOT(in.Base)), 0o644); err != nil {
			return fail(err)
		}
	}
	if *traceOut != "" {
		if in.Trace == nil {
			return fail(fmt.Errorf("-trace: a streamed workload is never materialized (use tracegen -stream, or drop -stream)"))
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		if err := in.Trace.WriteJSON(f); err != nil {
			return fail(err)
		}
		f.Close()
	}

	var lemma2 *core.Lemma2Checker
	if *checkLemmas {
		in.Opts.Instrument = true
		lemma2 = &core.Lemma2Checker{Eps: sc.EffEps(), Unrelated: sc.Workload.Heterogeneous(), SampleStride: 5}
		in.Opts.Observer = lemma2.Observe
	}
	if *gantt {
		in.Opts.Instrument = true
	}
	if *audit {
		if sc.Policy == "ps" {
			return fail(fmt.Errorf("-audit: processor sharing has no discrete slices to audit"))
		}
		in.Opts.Instrument = true
		in.Opts.RecordSlices = true
	}
	// Under bounded retention the Result only holds the last -retain
	// jobs, so -result streams every completion to disk as NDJSON
	// during the run instead of dumping afterwards.
	var resultFile *os.File
	var resultBuf *bufio.Writer
	if *resultOut != "" && sc.Engine.RetainJobs > 0 {
		f, err := os.Create(*resultOut)
		if err != nil {
			return fail(err)
		}
		resultFile, resultBuf = f, bufio.NewWriter(f)
		in.Opts.Sink = sim.NewNDJSONSink(resultBuf)
	}
	res, err := in.Run()
	if err != nil {
		if resultFile != nil {
			resultFile.Close()
		}
		return fail(err)
	}

	fmt.Fprintf(stdout, "topology        %s (%d nodes, %d machines)\n", sc.Topology, in.Tree.NumNodes(), len(in.Tree.Leaves()))
	fmt.Fprintf(stdout, "workload        %d jobs, load %.2f, seed %d\n", sc.Workload.N, sc.Workload.Load, sc.Seed)
	fmt.Fprintf(stdout, "scheduler       %s + %s, speed %.2f\n", in.Assigner.Name(), in.Opts.Policy.Name(), printedSpeed(sc, *scenFile == "", *speed))
	if in.FaultPlan != nil {
		rec := sc.Faults.Recovery
		if rec == "" {
			rec = "hold"
		}
		fmt.Fprintf(stdout, "faults          %d events, %s recovery, %d migrations\n",
			len(in.FaultPlan.Events), rec, len(res.Sim.Migrations()))
	}
	if *audit {
		// Drain already ran the auditor (instrumented + recorded
		// slices) and would have failed on any violation; report the
		// coverage explicitly.
		rep := res.Sim.Audit()
		status := "OK"
		if !rep.OK() {
			status = fmt.Sprintf("%d violations", len(rep.Violations))
		}
		fmt.Fprintf(stdout, "audit           %s, %d slices over %d tasks\n", status, rep.Slices, rep.Tasks)
	}
	fmt.Fprintf(stdout, "total flow      %.4g\n", res.Stats.TotalFlow)
	fmt.Fprintf(stdout, "fractional flow %.4g\n", res.Stats.FracFlow)
	if res.Stream != nil && len(res.Jobs) != res.Stream.Completed {
		// Bounded retention: the per-job record is truncated, so the
		// summary comes from the online accumulator instead.
		fmt.Fprintf(stdout, "flow/job        mean %.4g  l2 %.4g  max %.4g (streamed; %d of %d jobs retained)\n",
			res.Stream.AvgFlow(), res.Stream.LkNormFlow(2), res.Stream.MaxFlow, len(res.Jobs), res.Stream.Completed)
	} else {
		fmt.Fprintf(stdout, "flow/job        %s\n", metrics.FlowSummary(res))
	}
	fmt.Fprintf(stdout, "makespan        %.4g, events %d\n", res.Stats.Makespan, res.Stats.Events)
	if in.Trace != nil {
		lb := lowerbound.Best(in.Tree, in.Trace)
		fmt.Fprintf(stdout, "OPT lower bound %.4g  =>  competitive ratio <= %.3f\n", lb, res.Stats.TotalFlow/lb)
	} else {
		fmt.Fprintf(stdout, "OPT lower bound n/a (streamed workload is never materialized)\n")
	}
	b := metrics.Bottleneck(res)
	fmt.Fprintf(stdout, "bottleneck      node %d at %.1f%% busy\n", b.Node, 100*b.Busy)
	if *checkLemmas {
		rep1 := core.CheckLemma1(res, sc.EffEps(), sc.Workload.Heterogeneous())
		fmt.Fprintf(stdout, "Lemma 1         %d jobs, max ratio %.4f, violations %d\n", rep1.Jobs, rep1.MaxRatio, rep1.Violations)
		fmt.Fprintf(stdout, "Lemma 2         %d checks, max ratio %.4f, violations %d\n", lemma2.Checks, lemma2.MaxRatio, lemma2.Violations)
	}
	if *gantt {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, trace.Gantt(res, 100))
	}
	switch {
	case resultFile != nil:
		// Per-job lines were emitted by the sink during the run; finish
		// with one trailer line carrying the summary.
		enc := json.NewEncoder(resultBuf)
		trailer := struct {
			Stats  sim.Stats        `json:"stats"`
			Stream *sim.StreamStats `json:"stream,omitempty"`
		}{res.Stats, res.Stream}
		if err := enc.Encode(trailer); err != nil {
			return fail(err)
		}
		if err := resultBuf.Flush(); err != nil {
			return fail(err)
		}
		if err := resultFile.Close(); err != nil {
			return fail(err)
		}
	case *resultOut != "":
		f, err := os.Create(*resultOut)
		if err != nil {
			return fail(err)
		}
		// One giant JSON document stops being practical long before a
		// million jobs; switch to the streaming NDJSON form.
		write := res.WriteJSON
		if len(res.Jobs) >= 100000 {
			write = res.WriteNDJSON
		}
		if err := write(f); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	return 0
}

// runFleet executes a fleet scenario and prints the scorecard as a
// per-tree table plus fleet totals.
func runFleet(sc *scenario.Scenario, workers int, scorecardOut string, stdout io.Writer, fail func(error) int) int {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res, err := fleet.Run(sc, fleet.Options{Workers: workers})
	if err != nil {
		return fail(err)
	}
	card := &res.Scorecard
	fmt.Fprintf(stdout, "fleet           %d trees, policy %s, seed %d\n", card.Trees, card.Policy, card.Seed)
	fmt.Fprintf(stdout, "front door      %d jobs routed\n", card.Jobs)
	for _, row := range card.PerTree {
		line := fmt.Sprintf("tree %-3d        %-18s %6d jobs  flow %.4g  max %.4g  makespan %.4g",
			row.Tree, row.Topology, row.Jobs, row.TotalFlow, row.MaxFlow, row.Makespan)
		if row.Faults > 0 {
			line += fmt.Sprintf("  faults %d", row.Faults)
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "total flow      %.4g\n", card.TotalFlow)
	fmt.Fprintf(stdout, "weighted flow   %.4g\n", card.WeightedFlow)
	fmt.Fprintf(stdout, "makespan        %.4g\n", card.Makespan)
	if scorecardOut != "" {
		f, err := os.Create(scorecardOut)
		if err != nil {
			return fail(err)
		}
		if err := card.WriteJSON(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	return 0
}

// printedSpeed preserves the historical report line: the flag path
// always printed the -speed value (even under -checklemmas, which
// overrides the profile); scenario files print their own profile's
// uniform speed, or the router speed of a per-level triple.
func printedSpeed(sc *scenario.Scenario, fromFlags bool, speedFlag float64) float64 {
	if fromFlags {
		return speedFlag
	}
	switch {
	case sc.Speed.Uniform != 0:
		return sc.Speed.Uniform
	case sc.Speed.Router != 0:
		return sc.Speed.Router
	default:
		return 1
	}
}
