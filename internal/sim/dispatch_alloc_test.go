package sim

import (
	"testing"

	"treesched/internal/tree"
)

// greedyProbe mirrors the paper's identical-endpoint greedy rule from
// inside the package (core cannot be imported here): it evaluates
// AvailStats on every root-adjacent branch plus AvailVolume on the
// winner — the exact query mix the memoized dispatch path serves.
type greedyProbe struct{}

func (greedyProbe) Name() string { return "greedyProbe" }

func (greedyProbe) Assign(q *Query, a *Arrival) tree.NodeID {
	t := q.Tree()
	best := tree.None
	bestCost := 0.0
	for _, v := range t.Leaves() {
		vh, cl := q.AvailStats(t.Branch(v), a.Size, a.Release, a.ID)
		cost := vh + a.Size + a.Size*float64(cl) + 0.5*float64(t.Depth(v))*a.Size
		if best == tree.None || cost < bestCost {
			best, bestCost = v, cost
		}
	}
	_ = q.AvailVolume(t.Branch(best))
	return best
}

// Warm state-querying dispatch must be allocation-free: the epoch
// memo, the fstat snapshots (sorted window, key mirror, prefix
// chains) and the engine-owned Query view all live in reusable
// arenas, so steady state allocates nothing at all. Querying dispatch
// ignores Workers, so the pin holds at any worker count.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	tr := tree.FatTree(8, 1, 2)
	trace := shardTestTrace(t, 11, 400, 8)
	for _, workers := range []int{1, 4} {
		opts := Options{Workers: workers}
		s := New(tr, opts)
		replay := func() {
			s.Reset(opts)
			if err := ReplayOn(s, trace, greedyProbe{}); err != nil {
				t.Fatal(err)
			}
		}
		replay() // warm the arenas
		if allocs := testing.AllocsPerRun(20, replay); allocs != 0 {
			t.Fatalf("workers=%d: warm querying dispatch allocates %.1f allocs/run, want 0", workers, allocs)
		}
	}
}
