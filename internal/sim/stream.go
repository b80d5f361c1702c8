// Streaming run support: an online metrics accumulator, a per-job
// sink, and a bounded retention ring, so the engine can ingest
// million-job arrival streams in memory independent of trace length.
// The hooks are inert — one nil check on the completion path
// (handleFinish) — unless Options.RetainJobs or Options.Sink is set.
// When they are set, the engine copies each completion into a batch
// and hands full batches, in completion order, to an emitter
// goroutine that folds, retains and emits them, so the output work
// runs beside the event loop instead of inside it.
package sim

import (
	"bufio"
	"encoding/json"
	"io"
	"math"

	"treesched/internal/tree"
)

// JobSink receives every completed job's metrics, in completion
// order, during a streaming run. The pointed-to JobMetrics is only
// valid for the duration of the call; copy it to retain. A non-nil
// error stops emission (the run itself continues; the error is
// reported when results are collected).
//
// Emit runs on a goroutine the engine owns for the run, one call at
// a time, never concurrently with another Emit or Flush of the same
// run; every call returns before RunStream, RunStreamOn or Drain
// does. A sink that also has a Flush() error method is flushed after
// the last Emit of each Sim.FlushCompletions hand-off and at the end
// of the run; a Flush error counts as a sink error. Sim.StreamStats
// may be read inside Emit and Flush, where it covers every completion
// emitted so far, or after the run. Emit and Flush must not call the
// engine's join points (Drain, Reset, Stats, a replay): they would
// wait on the goroutine making the call.
type JobSink interface {
	Emit(m *JobMetrics) error
}

// sinkFlusher is the optional Flush half of a JobSink.
type sinkFlusher interface {
	Flush() error
}

// NDJSONSink writes one compact JSON object per completed job — the
// on-disk counterpart of Result.Jobs for runs too large to hold it.
// Lines are produced by the pooled append codec (AppendJobMetrics)
// into one reused buffer, byte-identical to what json.Encoder.Encode
// would write but allocation-free in steady state.
type NDJSONSink struct {
	w   io.Writer
	buf []byte
}

// NewNDJSONSink wraps w. Callers keeping the writer (e.g. a bufio
// buffer over a file) are responsible for flushing it after the run.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{w: w}
}

// Emit writes m as one JSON line.
func (k *NDJSONSink) Emit(m *JobMetrics) error {
	var err error
	if k.buf, err = AppendJobMetrics(k.buf[:0], m); err != nil {
		return err
	}
	k.buf = append(k.buf, '\n')
	_, err = k.w.Write(k.buf)
	return err
}

// LeafTally is one leaf machine's share of a streamed run.
type LeafTally struct {
	Leaf tree.NodeID
	// Jobs counts completions on the leaf; Flow and Work sum the
	// completed jobs' flow times and leaf processing requirements.
	Jobs int
	Flow float64
	Work float64
}

// StreamStats is the online accumulator of a streaming run: enough
// to reconstruct every summary statistic the materializing path
// reports, updated at each completion in O(1) so no per-job record
// needs retaining. Sums accumulate in completion order, whereas the
// materializing collector sums in job-ID order — the totals can
// differ in the last ulp between the two (everything order-free —
// Completed, MaxFlow, Makespan, per-job metrics — is identical).
type StreamStats struct {
	Completed    int
	TotalFlow    float64
	WeightedFlow float64
	MaxFlow      float64
	Makespan     float64
	// SumFlow2/SumFlow3 are the ℓ_k moment sums Σ F_j^k for k=2,3,
	// powering LkNormFlow without the per-job record.
	SumFlow2 float64
	SumFlow3 float64
	// PerLeaf tallies completions by leaf index.
	PerLeaf []LeafTally
}

// observe folds one completed job into the accumulator.
func (a *StreamStats) observe(m *JobMetrics, li int, leafWork float64) {
	a.Completed++
	a.TotalFlow += m.Flow
	a.WeightedFlow += m.Weight * m.Flow
	a.SumFlow2 += m.Flow * m.Flow
	a.SumFlow3 += m.Flow * m.Flow * m.Flow
	if m.Flow > a.MaxFlow {
		a.MaxFlow = m.Flow
	}
	if m.Completion > a.Makespan {
		a.Makespan = m.Completion
	}
	t := &a.PerLeaf[li]
	t.Jobs++
	t.Flow += m.Flow
	t.Work += leafWork
}

// AvgFlow returns the mean flow time per completed job.
func (a *StreamStats) AvgFlow() float64 {
	if a.Completed == 0 {
		return 0
	}
	return a.TotalFlow / float64(a.Completed)
}

// LkNormFlow returns the ℓ_k norm of the per-job flow times from the
// moment sums. Supported k: 1, 2, 3 and +Inf (max flow); other
// exponents need the per-job record and return NaN.
func (a *StreamStats) LkNormFlow(k float64) float64 {
	switch {
	case math.IsInf(k, 1):
		return a.MaxFlow
	case k == 1:
		return a.TotalFlow
	case k == 2:
		return math.Sqrt(a.SumFlow2)
	case k == 3:
		return math.Cbrt(a.SumFlow3)
	}
	return math.NaN()
}

// snapshot returns an independent copy for embedding in a Result.
func (a *StreamStats) snapshot() *StreamStats {
	cp := *a
	cp.PerLeaf = append([]LeafTally(nil), a.PerLeaf...)
	return &cp
}

// streamState is the engine's streaming hook bundle, installed by
// applyOptions when Options.RetainJobs or Options.Sink is set. While
// a run is live its accumulator, ring and sink belong to the emitter
// goroutine; the engine reads them only after joining it.
type streamState struct {
	acc StreamStats
	// ring holds the last retain completions (recycle mode only).
	retain   int
	ring     []JobMetrics
	ringHead int
	sink     JobSink
	sinkErr  error
	// recycle marks bounded retention: completed tasks return to the
	// shard freelist immediately and never enter s.tasks, so engine
	// memory is bounded by the maximum number of concurrently active
	// tasks rather than the trace length.
	recycle bool
}

// push records m in the retention ring, evicting the oldest entry
// once the ring is full.
func (st *streamState) push(m *JobMetrics) {
	if len(st.ring) < st.retain {
		st.ring = append(st.ring, *m)
		return
	}
	st.ring[st.ringHead] = *m
	st.ringHead++
	if st.ringHead == st.retain {
		st.ringHead = 0
	}
}

// ringOrdered returns the retained window oldest-completion first.
func (st *streamState) ringOrdered() []JobMetrics {
	out := make([]JobMetrics, len(st.ring))
	k := copy(out, st.ring[st.ringHead:])
	copy(out[k:], st.ring[:st.ringHead])
	return out
}

// emit runs the streaming hooks over one batch, in completion order:
// fold each completion into the accumulator, emit it to the sink and
// in recycle mode keep it in the retention ring; then flush the sink
// if the batch asks for it. Emitter goroutine only.
func (st *streamState) emit(b *emitBatch) {
	for i := range b.recs[:b.n] {
		c := &b.recs[i]
		st.acc.observe(&c.m, c.li, c.leafWork)
		if st.sink != nil && st.sinkErr == nil {
			st.sinkErr = st.sink.Emit(&c.m)
		}
		if st.recycle {
			st.push(&c.m)
		}
	}
	if b.flush && st.sinkErr == nil {
		if f, ok := st.sink.(sinkFlusher); ok {
			st.sinkErr = f.Flush()
		}
	}
}

// emitBatchLen is how many completions one hand-off to the emitter
// carries.
const emitBatchLen = 512

// emitPoolSize is how many batches a Sim may own. The engine fills one
// while the emitter works through the others, and blocks when every
// batch is in flight, so the pipeline's memory is fixed. Batches are
// made as the engine first needs them: an emitter that keeps up
// leaves a short run on a fresh engine with two.
const emitPoolSize = 4

// completion is one queued completion: the metrics the sink sees plus
// the accumulator's per-leaf inputs.
type completion struct {
	m        JobMetrics
	li       int
	leafWork float64
}

// emitBatch is one hand-off from the engine to the emitter.
type emitBatch struct {
	recs [emitBatchLen]completion
	n    int
	// flush asks the emitter to flush the sink after the batch.
	flush bool
}

// emitter is a Sim's completion pipeline: a fixed pool of batches
// cycling between the engine, which fills them in completion order,
// and one emitter goroutine per run, which runs the streaming hooks
// over them. The pool survives Reset; the goroutine starts at the
// first hand-off of a run and exits at the join (Sim.joinEmitter).
type emitter struct {
	// free holds the batches the emitter has finished; made counts
	// the batches allocated so far (engine side).
	free chan *emitBatch
	made int
	// work carries filled batches to the goroutine; a nil batch
	// stops it, and it answers on done.
	work chan *emitBatch
	done chan struct{}
	// Engine side: the batch being filled, whether the goroutine is
	// running, and whether anything completed since the last flush.
	cur     *emitBatch
	running bool
	pending bool
	// panicVal is a panic recovered on the emitter goroutine (a
	// panicking sink); the join re-raises it on the engine's.
	panicVal any
}

func newEmitter() *emitter {
	// Both channels hold the whole pool, so returning a batch to free
	// never blocks the emitter.
	return &emitter{
		free: make(chan *emitBatch, emitPoolSize),
		work: make(chan *emitBatch, emitPoolSize),
		done: make(chan struct{}),
	}
}

// batch returns an empty batch for the engine to fill: a finished
// one, a new one while the pool is not full, or else the next one the
// emitter finishes.
func (e *emitter) batch() *emitBatch {
	select {
	case b := <-e.free:
		return b
	default:
	}
	if e.made < emitPoolSize {
		e.made++
		return new(emitBatch)
	}
	return <-e.free
}

// run is the emitter goroutine of one run. After a panic it only
// recycles batches, so the engine never blocks on the pool.
func (e *emitter) run(st *streamState) {
	for {
		b := <-e.work
		if b == nil {
			e.done <- struct{}{}
			return
		}
		if e.panicVal == nil {
			e.emit(st, b)
		}
		b.n = 0
		e.free <- b
	}
}

func (e *emitter) emit(st *streamState, b *emitBatch) {
	defer func() {
		if r := recover(); r != nil {
			e.panicVal = r
		}
	}()
	st.emit(b)
}

// recycling reports bounded-retention mode: s.tasks is not populated
// and completed JobStates are recycled at completion.
func (s *Sim) recycling() bool { return s.stream != nil && s.stream.recycle }

// StreamStats returns the run's online accumulator (nil unless the
// engine has streaming hooks installed via Options.RetainJobs or
// Options.Sink). During a run the emitter goroutine updates it, so
// read it only inside a JobSink's Emit or Flush, or after the run
// (RunStream, RunStreamOn and Drain return with the emitter joined).
// Read-only for callers.
func (s *Sim) StreamStats() *StreamStats {
	if s.stream == nil {
		return nil
	}
	return &s.stream.acc
}

// streamComplete queues a task that just completed on its leaf for
// the emitter and, in recycle mode, returns its JobState to the shard
// freelist. A full batch goes to the emitter at once.
func (s *Sim) streamComplete(sh *shardState, js *JobState, li int) {
	e := s.emit
	if e == nil {
		e = newEmitter()
		s.emit = e
	}
	if e.cur == nil {
		e.cur = e.batch()
	}
	b := e.cur
	c := &b.recs[b.n]
	c.m = JobMetrics{
		ID:         js.ID,
		Release:    js.Release,
		Completion: js.Completion,
		Flow:       js.Completion - js.Release,
		Leaf:       js.Leaf,
		PathWork:   js.RouterSize*float64(len(js.Path)-1) + js.LeafWork,
		Weight:     js.Weight,
	}
	c.li = li
	c.leafWork = js.LeafWork
	b.n++
	e.pending = true
	if b.n == emitBatchLen {
		s.handOff(false)
	}
	if s.stream.recycle {
		sh.free = append(sh.free, js)
	}
}

// handOff passes the batch being filled to the emitter goroutine,
// starting the goroutine on a run's first hand-off.
func (s *Sim) handOff(flush bool) {
	e := s.emit
	if !e.running {
		e.running = true
		go e.run(s.stream)
	}
	b := e.cur
	e.cur = nil
	b.flush = flush
	e.work <- b
}

// FlushCompletions hands every completion queued so far to the
// emitter, which emits them and then flushes the sink if it has a
// Flush() error method. It does not wait for either. Nothing happens
// when no job completed since the last flush. The daemon calls it
// before the engine idles on an empty admission queue, so completed
// lines never wait for the next arrival; the end of a run flushes on
// its own.
func (s *Sim) FlushCompletions() {
	e := s.emit
	if e == nil || !e.pending {
		return
	}
	if e.cur == nil {
		e.cur = e.batch()
	}
	e.pending = false
	s.handOff(true)
}

// joinEmitter flushes the queued completions, waits until the emitter
// goroutine has emitted them and exited, and re-raises a panic it
// recovered. Only after it returns may the engine read the stream
// state (accumulator, ring, sinkErr). Drain, every return of ReplayOn
// and ReplayStreamOn, Reset and a recycle-mode Stats join.
func (s *Sim) joinEmitter() {
	e := s.emit
	if e == nil {
		return
	}
	s.FlushCompletions()
	if !e.running {
		return
	}
	e.work <- nil
	<-e.done
	e.running = false
	if p := e.panicVal; p != nil {
		e.panicVal = nil
		panic(p)
	}
}

// streamResult assembles the Result of a bounded-retention run from
// the accumulator: Jobs is only the retention window (completion
// order), Stream the full summary.
func (s *Sim) streamResult(n int) (*Result, error) {
	st := s.stream
	if st.acc.Completed != n {
		return nil, s.internalErr("streamResult", "%d of %d streamed jobs completed", st.acc.Completed, n)
	}
	var sum Stats
	sum.FracFlow, sum.ActiveIntegral, sum.Events = s.totals()
	sum.Completed = st.acc.Completed
	sum.TotalFlow = st.acc.TotalFlow
	sum.WeightedFlow = st.acc.WeightedFlow
	sum.MaxFlow = st.acc.MaxFlow
	sum.Makespan = st.acc.Makespan
	return &Result{Sim: s, Jobs: st.ringOrdered(), Stats: sum, Stream: st.acc.snapshot()}, nil
}

// WriteNDJSON writes the result as newline-delimited JSON: one
// {"stats":...} header line (with the streaming accumulator when
// present) followed by one compact object per retained job, written
// by AppendJobMetrics in the bytes json.Encoder would produce. Unlike
// WriteJSON it never builds one giant document, so large results
// stream to disk in constant memory.
func (r *Result) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := struct {
		Stats  Stats        `json:"stats"`
		Stream *StreamStats `json:"stream,omitempty"`
	}{r.Stats, r.Stream}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	sink := NewNDJSONSink(bw)
	for i := range r.Jobs {
		if err := sink.Emit(&r.Jobs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
