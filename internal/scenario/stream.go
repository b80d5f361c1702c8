// Streaming scenario support: deciding when a workload can be
// generated one job at a time, building the ArrivalSource, and the
// stream-aware run paths of Instance and Runner. GenerateRNG collects
// the very source SourceRNG streams, drawing from a fresh partition
// of the scenario's seed (in legacy mode, the historical single
// rng.New(Seed) stream), so streamed and materialized runs are
// bit-identical by construction.
package scenario

import (
	"fmt"

	"treesched/internal/rng"
	"treesched/internal/sim"
	"treesched/internal/workload"
)

// Streamable reports whether the workload can be generated one job
// at a time. The unrelated transform and weight assignment draw rng
// in whole-trace passes after generation (interleaving their draws
// per job would change the stream), and inline Jobs are already
// materialized — those fall back to generating the trace and
// wrapping it in a TraceSource, which is equally bit-identical but
// not constant-memory.
func (w *Workload) Streamable() bool {
	return len(w.Jobs) == 0 && w.Unrelated == nil && w.MaxWeight == 0
}

// SourceFrom returns an ArrivalSource for the workload drawing from
// r under the legacy single-stream discipline. Topology-derived
// defaults (Capacity, Unrelated.Leaves) must be resolved, exactly as
// for GenerateFrom. Non-streamable workloads materialize internally;
// either way the rng draws and the yielded jobs match GenerateFrom
// bit for bit.
func (w *Workload) SourceFrom(r *rng.Rand) (workload.ArrivalSource, error) {
	return w.SourceRNG(rng.LegacyFrom(r))
}

// SourceRNG is SourceFrom over a partition: arrivals draw from the
// "workload" stream and sizes from "sizes" (in legacy mode both names
// alias one stream, which is exactly the historical order). It is the
// source GenerateRNG collects, with class rounding applied per job.
func (w *Workload) SourceRNG(p *rng.PartitionedRNG) (workload.ArrivalSource, error) {
	if !w.Streamable() {
		tr, err := w.GenerateRNG(p)
		if err != nil {
			return nil, err
		}
		return workload.NewTraceSource(tr), nil
	}
	src, err := w.source(p)
	if err != nil {
		return nil, err
	}
	if w.RoundEps > 0 {
		src = workload.NewClassRoundSource(src, w.RoundEps)
	}
	return src, nil
}

// lazyStreamable reports whether Build may skip materializing the
// trace entirely: the scenario streams, the workload admits it, and
// no fault plan needs the trace's span (explicit fault events are
// fine — they draw nothing and know their own times).
func (sc *Scenario) lazyStreamable(w *Workload) bool {
	return sc.Engine.Stream && w.Streamable() &&
		(sc.Faults == nil || sc.Faults.Plan.Name == "")
}

// NewSource returns a fresh ArrivalSource for the instance's
// workload. With a materialized trace it is a TraceSource wrapping
// it; otherwise generation streams from a fresh partition built the
// same way Build builds its own, so every call yields the identical
// job sequence.
func (in *Instance) NewSource() (workload.ArrivalSource, error) {
	if in.Trace != nil {
		return workload.NewTraceSource(in.Trace), nil
	}
	p, err := in.Scenario.NewPartition()
	if err != nil {
		return nil, err
	}
	return in.workload.SourceRNG(p)
}

// runStream executes the instance through the streaming pipeline on
// the given engine (nil = fresh engine from in.Opts).
func (in *Instance) runStream(s *sim.Sim, asg sim.Assigner) (*sim.Result, error) {
	src, err := in.NewSource()
	if err != nil {
		return nil, fmt.Errorf("scenario: workload: %w", err)
	}
	if s == nil {
		return sim.RunStream(in.Tree, src, asg, in.Opts)
	}
	return sim.RunStreamOn(s, src, asg)
}
