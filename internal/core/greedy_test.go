package core

import (
	"testing"

	"treesched/internal/rng"
	"treesched/internal/sim"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// originTrace re-homes a share of a class trace's jobs the way
// experiment X1 does: 30% to random routers, and another 20% to random
// leaves, which may only be served where they arrive.
func originTrace(t *testing.T, tr *tree.Tree, seed uint64, n int) *workload.Trace {
	t.Helper()
	trace := classTrace(t, seed, n, 0.9, 0.5, len(tr.RootAdjacent()))
	var routers []tree.NodeID
	for id := tree.NodeID(1); int(id) < tr.NumNodes(); id++ {
		if !tr.IsLeaf(id) {
			routers = append(routers, id)
		}
	}
	r := rng.New(seed + 1)
	for i := range trace.Jobs {
		switch u := r.Float64(); {
		case u < 0.3:
			trace.Jobs[i].Origin = int32(routers[r.Intn(len(routers))])
		case u < 0.5:
			trace.Jobs[i].Origin = int32(tr.Leaves()[r.Intn(len(tr.Leaves()))])
		}
	}
	return trace
}

// TestGreedyOriginDispatchAllocFree pins arbitrary-origin dispatch at
// zero allocations on a warm engine: candidate sets are tree-owned
// slices and their visit orders are cached per origin, so neither a
// leaf nor an interior origin costs an allocation or a re-sort per
// arrival.
func TestGreedyOriginDispatchAllocFree(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := originTrace(t, tr, 31, 600)
	s := sim.New(tr, sim.Options{})
	for _, asg := range []sim.Assigner{NewGreedyIdentical(0.5), NewGreedyUnrelated(0.5)} {
		cycle := func() {
			s.Reset(sim.Options{})
			if err := sim.ReplayOn(s, trace, asg); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warm every buffer, and the per-origin orders
		if allocs := testing.AllocsPerRun(5, cycle); allocs > 0 {
			t.Errorf("%s: warm origin-workload run allocates %.1f times, want 0", asg.Name(), allocs)
		}
	}
}

// TestGreedyIdleExitMatchesScan holds the grouped descent — bound
// pruning plus the stop at the first idle branch — to the unpruned
// leaf-order scan, arrival by arrival, on trees where candidate depths
// differ (so the idle exit meets the depth bound), with interior
// origins, and with a distance weight small enough that depth ties
// are possible.
func TestGreedyIdleExitMatchesScan(t *testing.T) {
	trees := map[string]*tree.Tree{
		"broomstick":  tree.BroomstickTree(3, 2, 2),
		"caterpillar": tree.Caterpillar(4, 2),
		"fattree":     tree.FatTree(4, 1, 2).WithUniformSpeed(1.5),
		"deep-first":  deepFirstTree(),
	}
	for name, tr := range trees {
		for _, dw := range []float64{0, 1e-300, 1} {
			trace := originTrace(t, tr, 41, 500)
			fast := NewGreedyIdentical(0.5)
			fast.Cfg.DistanceWeight = dw
			ref := NewGreedyIdentical(0.5)
			ref.Cfg.DistanceWeight = dw
			ref.Cfg.DisableBoundPruning = true
			check := &twinAssigner{t: t, fast: fast, ref: ref}
			if _, err := sim.Run(tr, trace, check, sim.Options{}); err != nil {
				t.Fatalf("%s dw=%v: %v", name, dw, err)
			}
			if check.n == 0 {
				t.Fatalf("%s dw=%v: no decisions compared", name, dw)
			}
		}
	}
}

// twinAssigner asks both rules at every arrival, fails on any
// disagreement, and follows the reference.
type twinAssigner struct {
	t         *testing.T
	fast, ref sim.Assigner
	n         int
}

func (c *twinAssigner) Name() string { return "twin" }

func (c *twinAssigner) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	want := c.ref.Assign(q, a)
	if got := c.fast.Assign(q, a); got != want {
		c.t.Errorf("job %d (origin %d): pruned descent picked %d, scan %d", a.ID, a.Origin, got, want)
	}
	c.n++
	return want
}

// deepFirstTree builds a deep branch before a shallow one, so the
// lowest-index leaves are the deepest: with a vanishing distance
// weight an idle deep leaf ties an idle shallow one and wins on
// position, which the descent must still find after its idle exit.
func deepFirstTree() *tree.Tree {
	b := tree.NewBuilder()
	deep := b.AddRouter(b.AddRouter(b.Root()))
	b.AddLeaf(deep)
	b.AddLeaf(deep)
	shallow := b.AddRouter(b.Root())
	b.AddLeaf(shallow)
	b.AddLeaf(shallow)
	return b.MustFinalize()
}
