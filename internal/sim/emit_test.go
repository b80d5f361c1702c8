package sim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"treesched/internal/tree"
	"treesched/internal/workload"
)

// Tests of the completion pipeline: the engine hands completions to
// an emitter goroutine in batches of emitBatchLen, and every hook
// output must match what one in-line call per completion produced.

// emitCounts straddle the batch boundaries: empty, one, one short of
// a batch, exactly one, one over, and three batches plus one.
var emitCounts = []int{0, 1, emitBatchLen - 1, emitBatchLen, emitBatchLen + 1, 3*emitBatchLen + 1}

// foldRows refolds sink rows, in the order the sink saw them, into a
// fresh accumulator: the reference a streamed run's StreamStats must
// equal bit for bit.
func foldRows(tr *tree.Tree, trace *workload.Trace, rows []JobMetrics) *StreamStats {
	acc := &StreamStats{PerLeaf: make([]LeafTally, len(tr.Leaves()))}
	for li, v := range tr.Leaves() {
		acc.PerLeaf[li].Leaf = v
	}
	for i := range rows {
		m := &rows[i]
		li := tr.LeafIndex(m.Leaf)
		a := Arrival{Size: trace.Jobs[m.ID].Size, LeafSizes: trace.Jobs[m.ID].LeafSizes}
		acc.observe(m, li, a.LeafSize(li))
	}
	return acc
}

// sameStreamStats compares two accumulators bit for bit (NaN-free).
func sameStreamStats(a, b *StreamStats) bool {
	if a.Completed != b.Completed || len(a.PerLeaf) != len(b.PerLeaf) {
		return false
	}
	bits := func(s *StreamStats) []uint64 {
		return []uint64{math.Float64bits(s.TotalFlow), math.Float64bits(s.WeightedFlow),
			math.Float64bits(s.MaxFlow), math.Float64bits(s.Makespan),
			math.Float64bits(s.SumFlow2), math.Float64bits(s.SumFlow3)}
	}
	x, y := bits(a), bits(b)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	for i := range a.PerLeaf {
		p, q := a.PerLeaf[i], b.PerLeaf[i]
		if p.Leaf != q.Leaf || p.Jobs != q.Jobs ||
			math.Float64bits(p.Flow) != math.Float64bits(q.Flow) ||
			math.Float64bits(p.Work) != math.Float64bits(q.Work) {
			return false
		}
	}
	return true
}

// TestEmitExactlyOnceInOrder: across batch boundaries every completion
// reaches the sink exactly once with the materialized run's metrics,
// each shard's completions arrive in time order, the accumulator
// folded them in the order the sink saw them, and the retention ring
// holds the sink's tail — on a fresh engine and again after Reset,
// when the pooled batches are reused.
func TestEmitExactlyOnceInOrder(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	for _, n := range emitCounts {
		for _, retain := range []int{0, 3} {
			t.Run(fmt.Sprintf("n=%d/retain=%d", n, retain), func(t *testing.T) {
				trace := resetTestTrace(t, max(n, 1))
				trace.Jobs = trace.Jobs[:n]
				full, err := Run(tr, trace, &rrAssigner{}, Options{})
				if err != nil {
					t.Fatal(err)
				}
				s := New(tr, Options{})
				for round := 0; round < 2; round++ {
					sink := &recordSink{}
					s.Reset(Options{RetainJobs: retain, Sink: sink})
					res, err := RunStreamOn(s, workload.NewTraceSource(trace), &rrAssigner{})
					if err != nil {
						t.Fatal(err)
					}
					checkEmitted(t, s, full, trace, sink.rows, res, retain)
				}
			})
		}
	}
}

// checkEmitted checks one streamed run of trace against the
// materialized run full; rows is what the sink saw.
func checkEmitted(t *testing.T, s *Sim, full *Result, trace *workload.Trace, rows []JobMetrics, res *Result, retain int) {
	t.Helper()
	n := len(trace.Jobs)
	tr := s.tree
	if len(rows) != n {
		t.Fatalf("sink saw %d rows, want %d", len(rows), n)
	}
	seen := make([]bool, n)
	last := make([]float64, len(s.shards))
	for i, m := range rows {
		if seen[m.ID] {
			t.Fatalf("row %d: job %d emitted twice", i, m.ID)
		}
		seen[m.ID] = true
		if m != full.Jobs[m.ID] {
			t.Fatalf("row %d: %+v, materialized %+v", i, m, full.Jobs[m.ID])
		}
		k := s.shardOf[m.Leaf]
		if m.Completion < last[k] {
			t.Fatalf("row %d: job %d completes at %v, after a shard-%d completion at %v", i, m.ID, m.Completion, k, last[k])
		}
		last[k] = m.Completion
	}
	if !sameStreamStats(res.Stream, foldRows(tr, trace, rows)) {
		t.Fatalf("accumulator %+v differs from the fold of the sink rows", res.Stream)
	}
	if st := res.Stream; st.Completed != full.Stats.Completed || st.MaxFlow != full.Stats.MaxFlow || st.Makespan != full.Stats.Makespan {
		t.Fatalf("order-free stats %+v, materialized %+v", st, full.Stats)
	}
	if retain == 0 {
		for i := range full.Jobs {
			if res.Jobs[i] != full.Jobs[i] {
				t.Fatalf("job %d: %+v, materialized %+v", i, res.Jobs[i], full.Jobs[i])
			}
		}
		return
	}
	tail := rows[max(0, n-retain):]
	if len(res.Jobs) != len(tail) {
		t.Fatalf("ring holds %d jobs, want %d", len(res.Jobs), len(tail))
	}
	for i := range tail {
		if res.Jobs[i] != tail[i] {
			t.Fatalf("ring[%d] = %+v, want %+v", i, res.Jobs[i], tail[i])
		}
	}
}

// failSink records rows and fails the Emit of row index at.
type failSink struct {
	rows []JobMetrics
	at   int
	err  error
}

func (k *failSink) Emit(m *JobMetrics) error {
	if len(k.rows) == k.at {
		return k.err
	}
	k.rows = append(k.rows, *m)
	return nil
}

// TestEmitSinkErrorAtBatchBoundary: a sink error just before, on and
// just after a batch boundary surfaces from the run and stops
// emission at the failing row.
func TestEmitSinkErrorAtBatchBoundary(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 3*emitBatchLen)
	boom := errors.New("disk full")
	for _, at := range []int{emitBatchLen - 2, emitBatchLen - 1, emitBatchLen, emitBatchLen + 1} {
		for _, retain := range []int{0, 1} {
			sink := &failSink{at: at, err: boom}
			_, err := RunStream(tr, workload.NewTraceSource(trace), &rrAssigner{}, Options{RetainJobs: retain, Sink: sink})
			if !errors.Is(err, boom) {
				t.Fatalf("at=%d retain=%d: sink error not surfaced: %v", at, retain, err)
			}
			if len(sink.rows) != at {
				t.Fatalf("at=%d retain=%d: sink got %d rows, want emission to stop at %d", at, retain, len(sink.rows), at)
			}
		}
	}
}

// logSink logs every Emit as the job ID and every Flush as -1.
type logSink struct {
	log      []int
	flushErr error
}

func (k *logSink) Emit(m *JobMetrics) error {
	k.log = append(k.log, m.ID)
	return nil
}

func (k *logSink) Flush() error {
	k.log = append(k.log, -1)
	return k.flushErr
}

// flushingSource yields a trace and calls FlushCompletions before the
// jobs at the given positions, as the daemon does before idling, and
// whenever the last completion filled a batch (so the flush must carry
// an empty one); it records how many jobs had completed at each call.
type flushingSource struct {
	s       *Sim
	jobs    []workload.Job
	at      map[int]bool
	pos     int
	flushed []int
}

func (f *flushingSource) Next() (workload.Job, bool) {
	if f.pos == len(f.jobs) {
		return workload.Job{}, false
	}
	if e := f.s.emit; f.at[f.pos] || (e != nil && e.cur == nil && e.pending) {
		f.s.FlushCompletions()
		f.flushed = append(f.flushed, f.pos-f.s.Active())
	}
	f.pos++
	return f.jobs[f.pos-1], true
}

func (f *flushingSource) Err() error { return nil }

// TestEmitFlushFollowsEmits: a sink with a Flush method is flushed
// right after the last Emit of every FlushCompletions hand-off that
// carried completions (an empty one is skipped) and once more at the
// end of the run.
func TestEmitFlushFollowsEmits(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	n := 3*emitBatchLen + 7
	trace := resetTestTrace(t, n)
	// In the first set, positions 1 and 2 are back to back (the second
	// flush may find nothing new) and the others straddle batch
	// boundaries. With no positions, the only flushes are those after
	// a completion that filled a batch: they must hand over an empty
	// batch to carry the Flush.
	for _, at := range []map[int]bool{{1: true, 2: true, 300: true, 301: true, 900: true, 1200: true}, {}} {
		sink := &logSink{}
		s := New(tr, Options{RetainJobs: 1, Sink: sink})
		src := &flushingSource{s: s, jobs: trace.Jobs, at: at}
		if _, err := RunStreamOn(s, src, &rrAssigner{}); err != nil {
			t.Fatal(err)
		}
		if len(at) == 0 && len(src.flushed) == 0 {
			t.Fatal("no completion filled a batch right before an arrival; the empty-batch flush went untested")
		}
		var want []int // emits before each expected flush
		for _, c := range append(src.flushed, n) {
			if c > 0 && (len(want) == 0 || c > want[len(want)-1]) {
				want = append(want, c)
			}
		}
		var got []int
		emits := 0
		for _, id := range sink.log {
			if id < 0 {
				got = append(got, emits)
			} else {
				emits++
			}
		}
		if emits != n {
			t.Fatalf("sink saw %d emits, want %d", emits, n)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("flushes after %v emits, want %v (completed at the flush calls: %v)", got, want, src.flushed)
		}
		if sink.log[len(sink.log)-1] != -1 {
			t.Fatal("the run did not end with a flush")
		}
	}

	// A Flush error is a sink error.
	boom := errors.New("flush failed")
	if _, err := RunStream(tr, workload.NewTraceSource(trace), &rrAssigner{}, Options{RetainJobs: 1, Sink: &logSink{flushErr: boom}}); !errors.Is(err, boom) {
		t.Fatalf("flush error not surfaced: %v", err)
	}
}

// abortSource yields jobs until position stop, then ends with err, or
// — with bad set — yields a job whose ID breaks density there.
type abortSource struct {
	jobs []workload.Job
	stop int
	bad  bool
	err  error
	pos  int
}

func (a *abortSource) Next() (workload.Job, bool) {
	if a.pos == len(a.jobs) || (a.pos == a.stop && !a.bad) {
		return workload.Job{}, false
	}
	j := a.jobs[a.pos]
	if a.pos == a.stop {
		j.ID += 7
	}
	a.pos++
	return j, true
}

func (a *abortSource) Err() error {
	if a.pos == a.stop {
		return a.err
	}
	return nil
}

// panicAssigner is round-robin until the stop-th assignment, where it
// raises an engine-internal panic the run recovers into an error.
type panicAssigner struct {
	rrAssigner
	s    *Sim
	stop int
}

func (p *panicAssigner) Assign(q *Query, a *Arrival) tree.NodeID {
	if a.ID == p.stop {
		panic(p.s.internalErr("test", "injected failure at job %d", a.ID))
	}
	return p.rrAssigner.Assign(q, a)
}

// settledGoroutines waits briefly for exiting goroutines to finish
// and returns the count.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestEmitAbortedRunJoins: a run cut short — by a source error, an
// invalid job mid-stream, or a recovered internal panic — returns its
// error with the emitter joined (no goroutine left behind, every
// completion emitted), and the engine reruns byte-identically after
// Reset.
func TestEmitAbortedRunJoins(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 3*emitBatchLen)
	stop := 2*emitBatchLen + 5
	var want bytes.Buffer
	if _, err := RunStream(tr, workload.NewTraceSource(trace), &rrAssigner{}, Options{RetainJobs: 1, Sink: NewNDJSONSink(&want)}); err != nil {
		t.Fatal(err)
	}
	srcErr := errors.New("source broke")
	cases := []struct {
		name string
		run  func(s *Sim) error
		msg  string
	}{
		{"source-err", func(s *Sim) error {
			_, err := ReplayStreamOn(s, &abortSource{jobs: trace.Jobs, stop: stop, err: srcErr}, &rrAssigner{})
			return err
		}, srcErr.Error()},
		{"invalid-job", func(s *Sim) error {
			_, err := ReplayStreamOn(s, &abortSource{jobs: trace.Jobs, stop: stop, bad: true}, &rrAssigner{})
			return err
		}, "IDs must be dense"},
		{"internal-panic", func(s *Sim) error {
			_, err := ReplayStreamOn(s, workload.NewTraceSource(trace), &panicAssigner{s: s, stop: stop})
			return err
		}, "injected failure"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			sink := &recordSink{}
			s := New(tr, Options{RetainJobs: 1, Sink: sink})
			err := c.run(s)
			if err == nil || !strings.Contains(err.Error(), c.msg) {
				t.Fatalf("aborted run returned %v, want %q", err, c.msg)
			}
			if g := settledGoroutines(base); g > base {
				t.Fatalf("%d goroutines after the aborted run, %d before", g, base)
			}
			// Joined: every completion the engine saw reached the sink,
			// and the accumulator is readable.
			if got := s.StreamStats().Completed; got != len(sink.rows) || got < emitBatchLen {
				t.Fatalf("accumulator counts %d completions, sink saw %d (want at least one batch)", got, len(sink.rows))
			}
			var got bytes.Buffer
			s.Reset(Options{RetainJobs: 1, Sink: NewNDJSONSink(&got)})
			if _, err := RunStreamOn(s, workload.NewTraceSource(trace), &rrAssigner{}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("rerun after Reset is not byte-identical to a fresh run")
			}
			if g := settledGoroutines(base); g > base {
				t.Fatalf("%d goroutines after the rerun, %d before", g, base)
			}
		})
	}
}

// panicSink panics at its first Emit.
type panicSink struct{}

func (panicSink) Emit(*JobMetrics) error { panic("sink exploded") }

// TestEmitSinkPanicPropagates: a panicking sink does not take the
// process down from the emitter goroutine; the panic reaches the
// caller of the run, as it did when sinks ran on the engine's own
// goroutine, and the engine is reusable after Reset.
func TestEmitSinkPanicPropagates(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 2*emitBatchLen)
	s := New(tr, Options{Sink: panicSink{}})
	func() {
		defer func() {
			if r := recover(); r != "sink exploded" {
				t.Fatalf("recovered %v, want the sink's panic", r)
			}
		}()
		RunStreamOn(s, workload.NewTraceSource(trace), &rrAssigner{})
		t.Fatal("run returned normally")
	}()
	s.Reset(Options{RetainJobs: 1})
	res, err := RunStreamOn(s, workload.NewTraceSource(trace), &rrAssigner{})
	if err != nil || res.Stream.Completed != len(trace.Jobs) {
		t.Fatalf("rerun after a sink panic: %v", err)
	}
}

// TestEmitWarmRunAllocs pins the pipeline's allocations on a warm
// engine: a streamed run through an NDJSON sink allocates a fixed
// amount per run (options, result, the emitter goroutine) and nothing
// per job or per batch.
func TestEmitWarmRunAllocs(t *testing.T) {
	tr := tree.FatTree(2, 2, 2)
	trace := resetTestTrace(t, 8*emitBatchLen)
	opts := Options{RetainJobs: 1, Sink: NewNDJSONSink(io.Discard)}
	s := New(tr, opts)
	asg := &rrAssigner{}
	run := func(n int) float64 {
		tr := &workload.Trace{Jobs: trace.Jobs[:n]}
		return testing.AllocsPerRun(5, func() {
			s.Reset(opts)
			if _, err := RunStreamOn(s, workload.NewTraceSource(tr), asg); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Seven more batches must not cost seven more allocations; the
	// slack of two absorbs the runtime's occasional fresh goroutine.
	short, long := run(emitBatchLen), run(len(trace.Jobs))
	if long-short > 2 {
		t.Fatalf("warm streamed run allocates per job or per batch: %v allocs at %d jobs, %v at %d", short, emitBatchLen, long, len(trace.Jobs))
	}
	if long > 32 {
		t.Fatalf("warm streamed run allocates %v per run, want a small constant", long)
	}
	if s.emit.made > emitPoolSize {
		t.Fatalf("emitter made %d batches, pool size %d", s.emit.made, emitPoolSize)
	}
}
