package sim

import (
	"math"
	"reflect"
	"testing"

	"treesched/internal/faults"
	"treesched/internal/rng"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// oblRR is a round-robin assigner carrying the oblivious marker, so
// replay takes the fully parallel per-shard injection path.
type oblRR struct{ i int }

func (o *oblRR) Name() string       { return "oblRR" }
func (o *oblRR) ObliviousAssigner() {}
func (o *oblRR) Assign(q *Query, _ *Arrival) tree.NodeID {
	ls := q.Tree().Leaves()
	l := ls[o.i%len(ls)]
	o.i++
	return l
}

// leastVolume is a querying assigner (reads live engine state), so
// replay runs sequentially whatever Options.Workers says.
type leastVolume struct{}

func (leastVolume) Name() string { return "leastVolume" }
func (leastVolume) Assign(q *Query, _ *Arrival) tree.NodeID {
	best, bestV := tree.None, math.Inf(1)
	for _, l := range q.Tree().Leaves() {
		if v := q.AvailVolume(l); v < bestV {
			best, bestV = l, v
		}
	}
	return best
}

// runModes runs the same (tree, trace, opts) sequentially and with
// the given worker counts and demands bit-identical results: per-job
// metrics, summary stats, the slice log and the migration log.
func runModes(t *testing.T, tr *tree.Tree, trace *workload.Trace, mkAsg func() Assigner, opts Options, workers ...int) {
	t.Helper()
	opts.Workers = 1
	seq, err := Run(tr, trace, mkAsg(), opts)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	seqSlices := append([]Slice(nil), seq.Sim.Slices()...)
	seqMigs := append([]Migration(nil), seq.Sim.Migrations()...)
	for _, w := range workers {
		opts.Workers = w
		par, err := Run(tr, trace, mkAsg(), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(par.Jobs, seq.Jobs) {
			t.Fatalf("workers=%d: per-job metrics differ from sequential", w)
		}
		if par.Stats != seq.Stats {
			t.Fatalf("workers=%d: stats differ:\n  seq %+v\n  par %+v", w, seq.Stats, par.Stats)
		}
		if got := par.Sim.Slices(); !reflect.DeepEqual(got, seqSlices) && !(len(got) == 0 && len(seqSlices) == 0) {
			t.Fatalf("workers=%d: slice logs differ (%d vs %d slices)", w, len(got), len(seqSlices))
		}
		if got := par.Sim.Migrations(); !reflect.DeepEqual(got, seqMigs) && !(len(got) == 0 && len(seqMigs) == 0) {
			t.Fatalf("workers=%d: migration logs differ", w)
		}
	}
}

func shardTestTrace(t *testing.T, seed uint64, n int, cap float64) *workload.Trace {
	t.Helper()
	trace, err := workload.Poisson(rng.New(seed), workload.GenConfig{
		N: n, Size: workload.UniformSize{Lo: 1, Hi: 16}, Load: 0.9, Capacity: cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func TestShardedEquivalenceOblivious(t *testing.T) {
	tr := tree.FatTree(8, 1, 2) // 8 root-adjacent subtrees, 16 leaves
	trace := shardTestTrace(t, 1, 400, 8)
	for _, pol := range []Policy{nil, FIFO{}, SRPT{}, PS{}, LCFS{}} {
		opts := Options{Policy: pol, RecordSlices: true}
		runModes(t, tr, trace, func() Assigner { return &oblRR{} }, opts, 2, 3, 8, 16)
	}
}

func TestShardedEquivalenceQuerying(t *testing.T) {
	tr := tree.FatTree(4, 2, 2)
	trace := shardTestTrace(t, 2, 400, 4)
	runModes(t, tr, trace, func() Assigner { return leastVolume{} },
		Options{RecordSlices: true, Instrument: true, SelfCheck: true}, 2, 4, 8)
}

func TestShardedEquivalenceFaults(t *testing.T) {
	tr := tree.FatTree(4, 1, 2)
	trace := shardTestTrace(t, 3, 300, 4)
	ra := tr.RootAdjacent()
	leaves := tr.Leaves()
	fs := compile(t, tr,
		faults.Event{Kind: faults.Outage, Node: ra[0], Start: 5, End: 9},
		faults.Event{Kind: faults.Brownout, Node: leaves[3], Start: 2, End: 40, Factor: 0.5},
		faults.Event{Kind: faults.Outage, Node: leaves[6], Start: 10, End: 12},
	)
	runModes(t, tr, trace, func() Assigner { return &oblRR{} },
		Options{Faults: fs, RecordSlices: true}, 2, 4)
	runModes(t, tr, trace, func() Assigner { return leastVolume{} },
		Options{Faults: fs, RecordSlices: true}, 2, 4)
}

// Leaf death + redispatch forces the interleaved sequential fallback;
// the Workers knob must still reproduce the sequential schedule,
// migrations included.
func TestShardedEquivalenceRedispatch(t *testing.T) {
	tr := tree.FatTree(4, 1, 2)
	trace := shardTestTrace(t, 4, 300, 4)
	fs := compile(t, tr,
		faults.Event{Kind: faults.LeafLoss, Node: tr.Leaves()[0], Start: 15},
		faults.Event{Kind: faults.Outage, Node: tr.RootAdjacent()[1], Start: 5, End: 9},
	)
	runModes(t, tr, trace, func() Assigner { return &oblRR{} },
		Options{Faults: fs, Recovery: RecoverRedispatch, RecordSlices: true}, 2, 4)
}

// Observer forces the lockstep interleaved fallback: callbacks must
// fire in the same global order as the sequential engine.
func TestShardedObserverLockstep(t *testing.T) {
	tr := tree.FatTree(4, 1, 2)
	trace := shardTestTrace(t, 5, 200, 4)
	type fin struct {
		at     float64
		active int
	}
	record := func(opts Options) []fin {
		var log []fin
		opts.Observer = func(s *Sim) {
			log = append(log, fin{s.Now(), s.Active()})
		}
		if _, err := Run(tr, trace, &oblRR{}, opts); err != nil {
			t.Fatal(err)
		}
		return log
	}
	seq := record(Options{Workers: 1})
	par := record(Options{Workers: 4})
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("observer callback order differs: %d vs %d entries", len(seq), len(par))
	}
}

// A single root-adjacent subtree (Line) degenerates to one shard; the
// parallel path must cope with fewer shards than workers.
func TestShardedSingleShard(t *testing.T) {
	tr := tree.Line(3)
	trace := shardTestTrace(t, 6, 100, 1)
	runModes(t, tr, trace, func() Assigner { return &oblRR{} }, Options{RecordSlices: true}, 2, 8)
}

func TestShardedAuditClean(t *testing.T) {
	tr := tree.FatTree(4, 1, 2)
	trace := shardTestTrace(t, 7, 200, 4)
	fs := compile(t, tr,
		faults.Event{Kind: faults.Brownout, Node: tr.Leaves()[1], Start: 3, End: 30, Factor: 0.25},
	)
	res, err := Run(tr, trace, &oblRR{}, Options{Faults: fs, RecordSlices: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep := res.Sim.Audit(); !rep.OK() {
		t.Fatalf("audit of sharded run: %s", rep.Summary())
	}
	s := res.Sim
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", s.NumShards())
	}
	total := 0
	for k := 0; k < s.NumShards(); k++ {
		total += len(s.ShardSlices(k))
		if rep := s.AuditShard(k); !rep.OK() {
			t.Fatalf("audit of shard %d: %s", k, rep.Summary())
		}
	}
	if total != len(s.Slices()) {
		t.Fatalf("shard slices sum to %d, full log has %d", total, len(s.Slices()))
	}
}

// Warm parallel replay must stay cheap: the per-shard event loops are
// allocation-free, so steady-state cost is just the worker spawn.
func TestShardedSteadyStateAllocs(t *testing.T) {
	tr := tree.FatTree(8, 1, 2)
	trace := shardTestTrace(t, 8, 300, 8)
	opts := Options{Workers: 4}
	s := New(tr, opts)
	asg := &oblRR{}
	replay := func() {
		s.Reset(opts)
		asg.i = 0
		if err := ReplayOn(s, trace, asg); err != nil {
			t.Fatal(err)
		}
	}
	replay() // warm the arenas
	allocs := testing.AllocsPerRun(20, replay)
	// Budget: goroutine + waitgroup machinery for up to 3 helpers.
	if allocs > 16 {
		t.Fatalf("parallel steady-state replay allocates %.1f allocs/run, want <= 16", allocs)
	}
}

// The dispatch prepass must surface assigner errors with the same
// message as the sequential path.
func TestShardedAssignerError(t *testing.T) {
	tr := tree.FatTree(4, 1, 2)
	trace := shardTestTrace(t, 9, 20, 4)
	bad := badOblivious{node: tr.RootAdjacent()[0]}
	seqErr := ReplayOn(New(tr, Options{Workers: 1}), trace, bad)
	parErr := ReplayOn(New(tr, Options{Workers: 4}), trace, bad)
	if seqErr == nil || parErr == nil {
		t.Fatalf("want errors from non-leaf assignment, got seq=%v par=%v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("error mismatch:\n  seq %v\n  par %v", seqErr, parErr)
	}
}

type badOblivious struct{ node tree.NodeID }

func (badOblivious) Name() string                          { return "bad" }
func (badOblivious) ObliviousAssigner()                    {}
func (b badOblivious) Assign(*Query, *Arrival) tree.NodeID { return b.node }

// jsqLeaf is a second querying assigner: join-the-shortest-queue by
// available count on the leaf, a different query mix than leastVolume.
type jsqLeaf struct{}

func (jsqLeaf) Name() string { return "jsqLeaf" }
func (jsqLeaf) Assign(q *Query, a *Arrival) tree.NodeID {
	best, bestN := tree.None, int(^uint(0)>>1)
	for _, l := range q.Tree().Leaves() {
		if n := q.AvailCount(l); n < bestN {
			best, bestN = l, n
		}
	}
	_, _ = q.AvailStats(q.Tree().Branch(best), a.Size, a.Release, a.ID)
	return best
}

// Querying dispatch ignores Workers: runs at any worker count must be
// bit-identical to sequential across policies and a second query mix.
// Doubles as race-detector stress.
func TestShardedEquivalenceQueryingPolicies(t *testing.T) {
	tr := tree.FatTree(8, 1, 2)
	trace := shardTestTrace(t, 20, 400, 8)
	for _, pol := range []Policy{nil, SRPT{}, PS{}} {
		opts := Options{Policy: pol, RecordSlices: true}
		runModes(t, tr, trace, func() Assigner { return jsqLeaf{} }, opts, 2, 4, 8)
	}
}

// A querying assigner's injection errors must carry the same message
// at any worker count.
type badQuerying struct{ node tree.NodeID }

func (badQuerying) Name() string { return "badQuerying" }
func (b badQuerying) Assign(q *Query, _ *Arrival) tree.NodeID {
	_ = q.AvailCount(b.node)
	return b.node
}

func TestShardedQueryingAssignerError(t *testing.T) {
	tr := tree.FatTree(4, 1, 2)
	trace := shardTestTrace(t, 9, 20, 4)
	bad := badQuerying{node: tr.RootAdjacent()[0]}
	seqErr := ReplayOn(New(tr, Options{Workers: 1}), trace, bad)
	parErr := ReplayOn(New(tr, Options{Workers: 4}), trace, bad)
	if seqErr == nil || parErr == nil {
		t.Fatalf("want errors from non-leaf assignment, got seq=%v par=%v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("error mismatch:\n  seq %v\n  par %v", seqErr, parErr)
	}
}

// Streaming entry points ignore Workers for querying assigners: a
// plain TraceSource with no hooks delegates to ReplayOn, and a
// generator-fed full-retention run is always sequential. Both must
// equal a Workers=1 run.
func TestStreamParallelEquivalence(t *testing.T) {
	tr := tree.FatTree(4, 2, 2)
	trace := shardTestTrace(t, 22, 300, 4)
	run := func(workers int) *Result {
		res, err := RunStream(tr, workload.NewTraceSource(trace), jsqLeaf{}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	for _, w := range []int{2, 4} {
		par := run(w)
		if !reflect.DeepEqual(par.Jobs, seq.Jobs) || par.Stats != seq.Stats {
			t.Fatalf("workers=%d: trace-source streaming run differs from sequential", w)
		}
	}
	gen := func(workers int) *Result {
		src, err := workload.NewPoissonSource(rng.New(33), workload.GenConfig{
			N: 300, Size: workload.UniformSize{Lo: 1, Hi: 16}, Load: 0.9, Capacity: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunStream(tr, src, jsqLeaf{}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gseq := gen(1)
	gpar := gen(4)
	if !reflect.DeepEqual(gpar.Jobs, gseq.Jobs) || gpar.Stats != gseq.Stats {
		t.Fatal("generator-fed streaming run differs from sequential")
	}
}
