// Package sched provides the baseline leaf-assignment policies the
// paper's greedy rule is compared against: proximity-based,
// randomized, round-robin, queue-volume-aware and path-work-aware
// assignment. The node-level policies (SJF, FIFO, SRPT, LCFS) live in
// package sim; the paper's greedy assigner lives in package core.
package sched

import (
	"math"

	"treesched/internal/rng"
	"treesched/internal/sim"
	"treesched/internal/tree"
)

// eligible returns the leaves a job may be assigned to: all leaves,
// or only those below the job's origin in the arbitrary-origin
// extension (the origin itself when it is a leaf). Both answers are
// tree-owned slices; callers must not modify them.
func eligible(q *sim.Query, a *sim.Arrival) []tree.NodeID {
	if a.Origin == 0 {
		return q.Tree().Leaves()
	}
	return q.Tree().SubtreeLeaves(a.Origin)
}

// ClosestLeaf assigns the job to a leaf of minimum depth (minimum hop
// count), breaking ties by the smaller leaf processing time and then
// by node ID. It ignores congestion entirely — the paper's Section 3.1
// explains why this must fail under load.
type ClosestLeaf struct{}

// Name implements sim.Assigner.
func (ClosestLeaf) Name() string { return "ClosestLeaf" }

// ObliviousAssigner marks the decision as independent of engine state.
func (ClosestLeaf) ObliviousAssigner() {}

// Assign implements sim.Assigner.
func (ClosestLeaf) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	t := q.Tree()
	best := tree.None
	bestDepth, bestWork := math.MaxInt32, math.Inf(1)
	for _, v := range eligible(q, a) {
		d, w := t.Depth(v), a.LeafSize(t.LeafIndex(v))
		if d < bestDepth || (d == bestDepth && w < bestWork) {
			best, bestDepth, bestWork = v, d, w
		}
	}
	return best
}

// RandomLeaf assigns uniformly at random among eligible leaves.
type RandomLeaf struct {
	R *rng.Rand
}

// Name implements sim.Assigner.
func (*RandomLeaf) Name() string { return "RandomLeaf" }

// ObliviousAssigner marks the decision as independent of engine state.
func (*RandomLeaf) ObliviousAssigner() {}

// Assign implements sim.Assigner.
func (rl *RandomLeaf) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	ls := eligible(q, a)
	return ls[rl.R.Intn(len(ls))]
}

// RoundRobin cycles through the leaves in index order, the classic
// oblivious load balancer.
type RoundRobin struct {
	next int
}

// Name implements sim.Assigner.
func (*RoundRobin) Name() string { return "RoundRobin" }

// ObliviousAssigner marks the decision as independent of engine state.
func (*RoundRobin) ObliviousAssigner() {}

// Assign implements sim.Assigner.
func (rr *RoundRobin) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	ls := eligible(q, a)
	v := ls[rr.next%len(ls)]
	rr.next++
	return v
}

// LeastVolume assigns to the leaf minimizing the currently queued
// volume on its root-adjacent node plus the volume already assigned to
// the leaf itself — congestion-aware but priority-oblivious (it does
// not ask who would run first, unlike the paper's greedy rule).
type LeastVolume struct{}

// Name implements sim.Assigner.
func (LeastVolume) Name() string { return "LeastVolume" }

// Assign implements sim.Assigner. The per-leaf commitment splits into
// the volume already at the leaf (AvailVolume's snapshot aggregate)
// plus the store-and-forward backlog still upstream of it
// (AssignedUpstreamWork's maintained sum) — together equal to the
// LeafQueue scan this replaces, without walking the queue per leaf.
func (LeastVolume) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	t := q.Tree()
	best := tree.None
	bestCost := math.Inf(1)
	for _, v := range eligible(q, a) {
		cost := q.AvailVolume(t.Branch(v)) + q.AvailVolume(v) + q.AssignedUpstreamWork(v)
		cost += a.LeafSize(t.LeafIndex(v))
		if cost < bestCost {
			best, bestCost = v, cost
		}
	}
	return best
}

// MinPathWork assigns to the leaf minimizing the job's own total path
// processing time P_{j,v} = d_v·p_j + p_{j,v} (for unrelated leaves),
// the congestion-free optimum for an empty system.
type MinPathWork struct{}

// Name implements sim.Assigner.
func (MinPathWork) Name() string { return "MinPathWork" }

// ObliviousAssigner marks the decision as independent of engine state.
func (MinPathWork) ObliviousAssigner() {}

// Assign implements sim.Assigner.
func (MinPathWork) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	t := q.Tree()
	best := tree.None
	bestCost := math.Inf(1)
	for _, v := range eligible(q, a) {
		cost := float64(t.Depth(v)-1)*a.Size + a.LeafSize(t.LeafIndex(v))
		if cost < bestCost {
			best, bestCost = v, cost
		}
	}
	return best
}

// JoinShortestQueue assigns to the leaf whose root-adjacent node has
// the fewest queued jobs, ties by leaf queue length — the cardinality
// counterpart of LeastVolume.
type JoinShortestQueue struct{}

// Name implements sim.Assigner.
func (JoinShortestQueue) Name() string { return "JoinShortestQueue" }

// Assign implements sim.Assigner.
func (JoinShortestQueue) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	t := q.Tree()
	best := tree.None
	bestKey := math.Inf(1)
	for _, v := range eligible(q, a) {
		key := float64(q.AvailCount(t.Branch(v)))*1e6 + float64(len(q.LeafQueue(v)))
		if key < bestKey {
			best, bestKey = v, key
		}
	}
	return best
}
