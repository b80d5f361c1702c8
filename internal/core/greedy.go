// Package core implements the algorithmic contribution of Im &
// Moseley (SPAA 2015): the greedy leaf-assignment rules for identical
// and unrelated endpoints (Sections 3.4–3.6), the potential function
// Φ_j(t) of Lemma 3, validators for the structural Lemmas 1 and 2, and
// the general-tree algorithm that simulates a broomstick online and
// copies its assignments (Section 3.7).
package core

import (
	"fmt"
	"math"
	"slices"

	"treesched/internal/sim"
	"treesched/internal/tree"
)

// GreedyConfig tunes the paper's assignment rule.
type GreedyConfig struct {
	// Eps is the ε of the analysis; the distance term weighs
	// (6/ε²)·d_v·p_j. Must be in (0, 1] for the paper's constants to
	// make sense (larger values are allowed for ablation sweeps).
	Eps float64
	// DropDistanceTerm removes the (6/ε²)d_v p_j term (ablation B5).
	DropDistanceTerm bool
	// DropVolumeTerm removes F(j,v) (and F'(j,v)) entirely,
	// degenerating to pure distance-greedy assignment (ablation B5).
	DropVolumeTerm bool
	// DistanceWeight overrides the 6/eps^2 coefficient of the
	// distance term when positive. The analysis needs the full
	// constant; experiment B5 shows a weight of ~1 (plain path work
	// P_{j,v}) performs better in practice.
	DistanceWeight float64
	// DisableBoundPruning makes the rule score every eligible leaf in
	// leaf order instead of descending candidates by the admissible
	// distance bound (and stopping at the first idle branch). The
	// selected leaf is identical either way (the pruning argument is
	// exact, see GreedyIdentical.Assign); the knob exists for the
	// differential tests and for benchmarking the pruning's effect.
	DisableBoundPruning bool
}

func (c GreedyConfig) validate() {
	if c.Eps <= 0 {
		panic(fmt.Sprintf("core: GreedyConfig.Eps must be positive, got %v", c.Eps))
	}
}

// distanceWeight is the coefficient of the distance term: the paper's
// 6/ε² unless overridden.
func (c GreedyConfig) distanceWeight() float64 {
	if c.DistanceWeight > 0 {
		return c.DistanceWeight
	}
	return 6 / (c.Eps * c.Eps)
}

// F computes the paper's F(j,v) for a candidate leaf v at time t=r_j:
//
//	F(j,v) = Σ_{J_i ∈ S_{R(v),j}(t)} p^A_{i,R(v)}(t)
//	       + p_j · |{J_i ∈ Q_{R(v)}(t) : p_i > p_j}|
//
// The first term is the higher-priority volume the job must wait for
// on its root-adjacent node (S includes J_j itself, contributing p_j);
// the second charges the job for every lower-priority job it delays.
// The engine memoizes the underlying AvailStats per node and arrival
// (see sim.Query), so evaluating F for every leaf of a branch costs
// one snapshot search total, not one per leaf.
func F(q *sim.Query, a *sim.Arrival, v tree.NodeID) float64 {
	r := q.Tree().Branch(v)
	volHigher, countLarger := q.AvailStats(r, a.Size, a.Release, a.ID)
	return volHigher + a.Size + a.Size*float64(countLarger)
}

// FPrime computes the paper's F'(j,v) for unrelated endpoints:
//
//	F'(j,v) = Σ_{J_i ∈ S_{v,j}(t)} p^A_{i,v}(t)
//	        + p_{j,v} · Σ_{J_i ∈ Q_v(t), p_{i,v} > p_{j,v}} p^A_{i,v}(t)/p_{i,v}
//
// mirroring F at the leaf itself, with the displacement term weighted
// by the delayed jobs' remaining fractions.
func FPrime(q *sim.Query, a *sim.Arrival, v tree.NodeID) float64 {
	pjv := a.LeafSize(q.Tree().LeafIndex(v))
	return q.LeafVolumeHigher(v, pjv, a.Release, a.ID) + pjv +
		pjv*q.LeafFracLarger(v, pjv)
}

// dispatchOrder caches the depth-ascending visit order of one
// candidate leaf set. An arrival's candidate set is a function of the
// tree and its origin alone (eligibleLeaves returns tree-owned
// slices), so orders are cached per origin and built once per tree.
// Assigners holding one are not goroutine-safe (like the other
// stateful assigners, e.g. sched.RoundRobin).
type dispatchOrder struct {
	built  bool
	order  []int32
	groups []branchGroup
}

// branchGroup is a maximal run of depth-ordered candidates sharing
// (root-adjacent branch, depth) — one identical-rule cost evaluation
// covers the whole run, and its lowest-index leaf is the only member
// that can ever win the first-minimum tie-break.
type branchGroup struct {
	leaf  tree.NodeID // lowest-index leaf of the run (the representative)
	pos   int32       // its index in the candidate slice (tie-break rank)
	depth int32
	// next indexes the first group of the next depth (len(groups) at
	// the deepest): where the descent resumes after an idle branch.
	next int32
}

// rebuild computes the order and groups of a candidate set.
func (d *dispatchOrder) rebuild(t *tree.Tree, leaves []tree.NodeID) {
	d.built = true
	d.order = d.order[:0]
	for i := range leaves {
		d.order = append(d.order, int32(i))
	}
	slices.SortFunc(d.order, func(x, y int32) int {
		dx, dy := t.Depth(leaves[x]), t.Depth(leaves[y])
		if dx != dy {
			return dx - dy
		}
		return int(x - y)
	})
	d.groups = d.groups[:0]
	lastB, lastD := tree.None, int32(-1)
	for _, i := range d.order {
		v := leaves[i]
		b, dep := t.Branch(v), int32(t.Depth(v))
		if b != lastB || dep != lastD {
			d.groups = append(d.groups, branchGroup{leaf: v, pos: i, depth: dep})
			lastB, lastD = b, dep
		}
	}
	next := int32(len(d.groups))
	for i := len(d.groups) - 1; i >= 0; i-- {
		if i+1 < len(d.groups) && d.groups[i+1].depth != d.groups[i].depth {
			next = int32(i + 1)
		}
		d.groups[i].next = next
	}
}

// dispatchOrders holds the cached orders of one tree: root-origin
// arrivals use root; interior origins index byOrigin, allocated at the
// first such arrival.
type dispatchOrders struct {
	tree     *tree.Tree
	root     dispatchOrder
	byOrigin []dispatchOrder
}

// get returns the order of the arrival's candidate set, leaves (which
// must be eligibleLeaves' answer for origin). Indices run into leaves
// sorted by (depth, index) ascending — the admissible-bound order of
// the pruned descent — and groups are the (branch, depth) runs in the
// same order. Two non-adjacent runs of one key yield two groups; that
// only costs a duplicate evaluation and never changes the winner.
func (d *dispatchOrders) get(t *tree.Tree, origin tree.NodeID, leaves []tree.NodeID) *dispatchOrder {
	if d.tree != t {
		// Holding the tree keeps it alive, so pointer identity is a
		// sound key.
		d.tree = t
		d.root.built = false
		d.byOrigin = nil
	}
	o := &d.root
	if origin != 0 {
		if d.byOrigin == nil {
			d.byOrigin = make([]dispatchOrder, t.NumNodes())
		}
		o = &d.byOrigin[origin]
	}
	if !o.built {
		o.rebuild(t, leaves)
	}
	return o
}

// GreedyIdentical is the paper's assignment rule for the identical
// endpoint setting (Section 3.5): assign the arriving job to
//
//	argmin_{v ∈ L} { F(j,v) + (6/ε²)·d_v·p_j }.
type GreedyIdentical struct {
	Cfg GreedyConfig
	ord dispatchOrders
}

// NewGreedyIdentical constructs the identical-endpoint greedy rule.
func NewGreedyIdentical(eps float64) *GreedyIdentical {
	g := &GreedyIdentical{Cfg: GreedyConfig{Eps: eps}}
	g.Cfg.validate()
	return g
}

// Name implements sim.Assigner.
func (g *GreedyIdentical) Name() string { return "GreedyIdentical" }

// Assign implements sim.Assigner. F(j,v) depends only on the
// root-adjacent ancestor R(v), so one evaluation per (branch, depth)
// group covers every leaf of the group.
//
// Candidates are visited in depth-ascending order and the descent
// stops at the first leaf whose admissible lower bound
//
//	lb(v) = dw·d_v·p_j + p_j      (p_j ≤ F(j,v): volHigher ≥ 0 and
//	                               the count term is nonnegative)
//
// strictly exceeds the best cost so far: the bound is monotone in
// depth (float multiplication and addition are monotone on
// nonnegative operands), so every remaining candidate is strictly
// worse than the incumbent and cannot even tie. A group whose
// root-adjacent node holds no available task attains the bound of its
// depth exactly (AvailStats would return (0, 0), and 0 + p + p·0 = p
// in floats), so every later group of that depth costs at least as
// much and, having a larger position, loses any tie: the descent skips
// straight to the next depth, where the bound test usually ends it.
// Ties among scored candidates resolve to the lowest leaf index, which
// is exactly the first-minimum-wins rule of the plain left-to-right
// scan — the selected leaf is bit-for-bit the unpruned argmin.
func (g *GreedyIdentical) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	g.Cfg.validate()
	t := q.Tree()
	leaves := eligibleLeaves(q, a)
	if len(leaves) == 1 {
		return leaves[0]
	}
	var dw float64
	if !g.Cfg.DropDistanceTerm {
		dw = g.Cfg.distanceWeight()
	}
	if g.Cfg.DisableBoundPruning || dw == 0 {
		// The cost depends on v only through (R(v), d_v): consecutive
		// candidates sharing both reuse the identical cost bits, and an
		// equal cost never displaces the incumbent, so skipping the
		// recomputation is exact.
		lastBranch := tree.None
		lastDepth := -1
		var lastCost float64
		best := tree.None
		bestCost := math.Inf(1)
		for _, v := range leaves {
			r, d := t.Branch(v), t.Depth(v)
			var cost float64
			if r == lastBranch && d == lastDepth {
				cost = lastCost
			} else {
				if !g.Cfg.DropVolumeTerm {
					cost += F(q, a, v)
				}
				if !g.Cfg.DropDistanceTerm {
					cost += dw * float64(d) * a.Size
				}
				lastBranch, lastDepth, lastCost = r, d, cost
			}
			if cost < bestCost {
				best, bestCost = v, cost
			}
		}
		return best
	}
	minF := a.Size
	if g.Cfg.DropVolumeTerm {
		minF = 0 // cost degenerates to the distance term alone
	}
	// Every leaf of a (branch, depth) group shares the cost, so only
	// each group's lowest-index member can win first-minimum-wins;
	// scoring one representative per group is exact and reads each
	// root-adjacent node at most once per arrival, which is why the
	// per-node memo is bypassed.
	best := tree.None
	bestCost := math.Inf(1)
	bestPos := int32(math.MaxInt32)
	groups := g.ord.get(t, a.Origin, leaves).groups
	for i := 0; i < len(groups); {
		gr := &groups[i]
		distTerm := dw * float64(gr.depth) * a.Size
		if distTerm+minF > bestCost {
			break
		}
		cost := distTerm
		idle := false
		if !g.Cfg.DropVolumeTerm {
			r := t.Branch(gr.leaf)
			if q.AvailCount(r) == 0 {
				cost = a.Size + distTerm // F(j,v) = p_j exactly
				idle = true
			} else {
				vh, c := q.AvailStatsUncached(r, a.Size, a.Release, a.ID)
				cost = vh + a.Size + a.Size*float64(c) + distTerm
			}
		}
		if cost < bestCost || (cost == bestCost && gr.pos < bestPos) {
			best, bestCost, bestPos = gr.leaf, cost, gr.pos
		}
		if idle {
			i = int(gr.next)
		} else {
			i++
		}
	}
	return best
}

// Cost exposes the rule's objective for a candidate leaf (used by the
// dual-fitting experiment to compute β_j = min_v cost).
func (g *GreedyIdentical) Cost(q *sim.Query, a *sim.Arrival, v tree.NodeID) float64 {
	return F(q, a, v) + g.Cfg.distanceWeight()*float64(q.Tree().Depth(v))*a.Size
}

// GreedyUnrelated is the paper's assignment rule for the unrelated
// endpoint setting (Section 3.6): assign the arriving job to
//
//	argmin_{v ∈ L} { F(j,v) + F'(j,v) + (6/ε²)·d_v·p_j }.
type GreedyUnrelated struct {
	Cfg GreedyConfig
	ord dispatchOrders
}

// NewGreedyUnrelated constructs the unrelated-endpoint greedy rule.
func NewGreedyUnrelated(eps float64) *GreedyUnrelated {
	g := &GreedyUnrelated{Cfg: GreedyConfig{Eps: eps}}
	g.Cfg.validate()
	return g
}

// Name implements sim.Assigner.
func (g *GreedyUnrelated) Name() string { return "GreedyUnrelated" }

// Assign implements sim.Assigner. The F term is shared per branch via
// the engine's query memo; F' must be evaluated per leaf. The pruned
// descent mirrors GreedyIdentical's: p_j bounds F(j,v) from below and
// F'(j,v) ≥ p_{j,v} ≥ 0 adds only nonnegative terms, so
// dw·d_v·p_j + p_j is an exact admissible bound for the full cost and
// strictly-greater pruning preserves the argmin and its tie-break.
func (g *GreedyUnrelated) Assign(q *sim.Query, a *sim.Arrival) tree.NodeID {
	g.Cfg.validate()
	t := q.Tree()
	leaves := eligibleLeaves(q, a)
	if len(leaves) == 1 {
		return leaves[0]
	}
	var dw float64
	if !g.Cfg.DropDistanceTerm {
		dw = g.Cfg.distanceWeight()
	}
	if g.Cfg.DisableBoundPruning || dw == 0 {
		best := tree.None
		bestCost := math.Inf(1)
		for _, v := range leaves {
			var cost float64
			if !g.Cfg.DropVolumeTerm {
				cost += F(q, a, v) + FPrime(q, a, v)
			}
			if !g.Cfg.DropDistanceTerm {
				cost += dw * float64(t.Depth(v)) * a.Size
			}
			if cost < bestCost {
				best, bestCost = v, cost
			}
		}
		return best
	}
	minF := a.Size
	if g.Cfg.DropVolumeTerm {
		minF = 0
	}
	best := tree.None
	bestCost := math.Inf(1)
	bestPos := len(leaves)
	for _, oi := range g.ord.get(t, a.Origin, leaves).order {
		v := leaves[oi]
		distTerm := dw * float64(t.Depth(v)) * a.Size
		if distTerm+minF > bestCost {
			break
		}
		var cost float64
		if !g.Cfg.DropVolumeTerm {
			cost += F(q, a, v) + FPrime(q, a, v)
		}
		cost += distTerm
		if cost < bestCost || (cost == bestCost && int(oi) < bestPos) {
			best, bestCost, bestPos = v, cost, int(oi)
		}
	}
	return best
}

// Cost exposes the unrelated rule's objective for a candidate leaf.
func (g *GreedyUnrelated) Cost(q *sim.Query, a *sim.Arrival, v tree.NodeID) float64 {
	return F(q, a, v) + FPrime(q, a, v) +
		g.Cfg.distanceWeight()*float64(q.Tree().Depth(v))*a.Size
}

// eligibleLeaves honors the arbitrary-origin extension: jobs released
// at an interior node may only be assigned below it, and a job
// released at a leaf stays there. Both answers are tree-owned slices,
// so the per-arrival path does not allocate.
func eligibleLeaves(q *sim.Query, a *sim.Arrival) []tree.NodeID {
	if a.Origin == 0 {
		return q.Tree().Leaves()
	}
	return q.Tree().SubtreeLeaves(a.Origin)
}
