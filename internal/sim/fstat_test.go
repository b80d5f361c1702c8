package sim

import (
	"math"
	"testing"

	"treesched/internal/tree"
)

// Naive references: the pre-snapshot per-query scans over the raw
// queue, kept here as the ground truth the fstat fast path must match.

func naiveVolumeHigher(s *Sim, v tree.NodeID, size, release float64, id int) float64 {
	s.sync(v)
	var sum float64
	for _, js := range s.nodes[v].avail.tasks() {
		if higherPriority(js.PrioOnCur, js.Release, js.ID, js.seq, size, release, id, maxSeq) {
			sum += js.Remaining
		}
	}
	return sum
}

func naiveCountLarger(s *Sim, v tree.NodeID, size float64) int {
	count := 0
	var seen []int
	for _, js := range s.nodes[v].avail.tasks() {
		if js.PrioOnCur <= size {
			continue
		}
		dup := false
		for _, id := range seen {
			if id == js.ID {
				dup = true
				break
			}
		}
		if !dup {
			seen = append(seen, js.ID)
			count++
		}
	}
	return count
}

func naiveVolume(s *Sim, v tree.NodeID) float64 {
	s.sync(v)
	var sum float64
	for _, js := range s.nodes[v].avail.tasks() {
		sum += js.Remaining
	}
	return sum
}

// volumesClose compares two volume sums up to summation-order float
// noise (the snapshot sums in priority order, the scan in heap order).
func volumesClose(a, b float64) bool {
	const eps = 1e-9
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// fstatChecker is a querying assigner that cross-checks every snapshot
// query against the naive scan at each arrival instant, on every
// root-adjacent node and every leaf, then routes by least volume so the
// queues it perturbs keep mixing.
type fstatChecker struct {
	t *testing.T
	// windows counts the queried windows by length, so tests can show
	// both sides of the short-window bound were exercised.
	windows map[int]int
}

func (c *fstatChecker) Name() string { return "fstatChecker" }

func (c *fstatChecker) Assign(q *Query, a *Arrival) tree.NodeID {
	t := c.t
	tr := q.Tree()
	s := q.s
	nodes := append(append([]tree.NodeID(nil), tr.RootAdjacent()...), tr.Leaves()...)
	for _, v := range nodes {
		wantVH := naiveVolumeHigher(s, v, a.Size, a.Release, a.ID)
		wantCL := naiveCountLarger(s, v, a.Size)
		wantVol := naiveVolume(s, v)
		if c.windows != nil {
			c.windows[q.AvailCount(v)]++
		}
		gotVH, gotCL := q.AvailStats(v, a.Size, a.Release, a.ID)
		if !volumesClose(gotVH, wantVH) {
			t.Errorf("job %d node %d: AvailStats volHigher=%v, scan=%v", a.ID, v, gotVH, wantVH)
		}
		if gotCL != wantCL {
			t.Errorf("job %d node %d: AvailStats countLarger=%d, scan=%d", a.ID, v, gotCL, wantCL)
		}
		if vh, cl := q.AvailStatsUncached(v, a.Size, a.Release, a.ID); vh != gotVH || cl != gotCL {
			t.Errorf("job %d node %d: AvailStatsUncached=(%v,%d), AvailStats=(%v,%d)", a.ID, v, vh, cl, gotVH, gotCL)
		}
		if got := q.AvailVolumeHigher(v, a.Size, a.Release, a.ID); !volumesClose(got, wantVH) {
			t.Errorf("job %d node %d: AvailVolumeHigher=%v, scan=%v", a.ID, v, got, wantVH)
		}
		if got := q.AvailCountLarger(v, a.Size); got != wantCL {
			t.Errorf("job %d node %d: AvailCountLarger=%d, scan=%d", a.ID, v, got, wantCL)
		}
		if got := q.AvailVolume(v); !volumesClose(got, wantVol) {
			t.Errorf("job %d node %d: AvailVolume=%v, scan=%v", a.ID, v, got, wantVol)
		}
		// Half-size probe: exercises hypoRank/countLarger boundaries in
		// the middle of the queue, not just at the arrival's own size.
		if got, want := q.AvailCountLarger(v, a.Size/2), naiveCountLarger(s, v, a.Size/2); got != want {
			t.Errorf("job %d node %d: AvailCountLarger(half)=%d, scan=%d", a.ID, v, got, want)
		}
	}
	best, bestV := tree.None, math.Inf(1)
	for _, l := range tr.Leaves() {
		if v := q.AvailVolume(l); v < bestV {
			best, bestV = l, v
		}
	}
	return best
}

// TestFStatMatchesScan drives loaded runs under every policy (PS takes
// the scan fallback; the rest take the queue pass for short windows and
// the snapshot for long ones) and cross-checks each query against the
// naive scan at every arrival. The non-PS runs must query windows just
// below and just above shortWindow, so both AvailStats paths and the
// switch between them are covered.
func TestFStatMatchesScan(t *testing.T) {
	t.Parallel()
	tr := tree.FatTree(4, 2, 2)
	trace := shardTestTrace(t, 11, 300, 4)
	for _, pol := range []Policy{nil, FIFO{}, SRPT{}, WSJF{}, LCFS{}, PS{}} {
		name := "SJF"
		if pol != nil {
			name = pol.Name()
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := &fstatChecker{t: t, windows: map[int]int{}}
			if _, err := Run(tr, trace, c, Options{Policy: pol}); err != nil {
				t.Fatal(err)
			}
			if _, ps := pol.(PS); ps {
				return
			}
			for _, w := range []int{shortWindow - 1, shortWindow, shortWindow + 1, shortWindow + 2} {
				if c.windows[w] == 0 {
					t.Errorf("no query saw a window of %d tasks (short-window bound %d): %v", w, shortWindow, c.windows)
				}
			}
		})
	}
}

// TestFStatMatchesScanPacketized repeats the cross-check with jobs
// split into packets: packet siblings share (PrioOnCur, Release, ID),
// exercising the snapshot's distinct-ID de-duplication.
func TestFStatMatchesScanPacketized(t *testing.T) {
	t.Parallel()
	tr := tree.FatTree(2, 2, 2)
	trace := shardTestTrace(t, 12, 150, 2)
	if _, err := RunPacketized(tr, trace, &fstatChecker{t: t}, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestFStatQueriesAllocFree pins both AvailCountLarger paths —
// snapshot and PS sorted-scratch fallback — at zero allocations once
// warm, including a forced refresh (the refresh reuses its slices).
func TestFStatQueriesAllocFree(t *testing.T) {
	tr := tree.FatTree(2, 1, 2)
	leaf := tr.Leaves()[0]
	br := tr.Branch(leaf)
	for _, ps := range []bool{false, true} {
		var opts Options
		if ps {
			opts.Policy = PS{}
		}
		s := New(tr, opts)
		for i := 0; i < 64; i++ {
			if _, err := s.Inject(&Arrival{ID: i, Release: 0, Size: 1 + float64(i%7)}, leaf); err != nil {
				t.Fatal(err)
			}
		}
		q := s.Query()
		q.AvailCountLarger(br, 3.5) // warm the scratch / snapshot
		allocs := testing.AllocsPerRun(100, func() {
			s.nodes[br].fsnap.invalidate()
			q.AvailCountLarger(br, 3.5)
			q.AvailVolumeHigher(br, 3.5, 0, 1<<30)
			q.AvailVolume(br)
		})
		if allocs != 0 {
			t.Errorf("ps=%v: %v allocs per warm query round, want 0", ps, allocs)
		}
	}
}

// benchCountLarger measures AvailCountLarger with n tasks queued on a
// root-adjacent node. churn forces a snapshot rebuild per query (the
// worst case: every arrival lands between membership changes); without
// churn the query is a binary search on the clean snapshot. ps selects
// the sorted-scratch fallback path.
func benchCountLarger(b *testing.B, n int, churn, ps bool) {
	tr := tree.FatTree(2, 1, 2)
	var opts Options
	if ps {
		opts.Policy = PS{}
	}
	s := New(tr, opts)
	leaf := tr.Leaves()[0]
	br := tr.Branch(leaf)
	for i := 0; i < n; i++ {
		if _, err := s.Inject(&Arrival{ID: i, Release: 0, Size: 1 + float64(i%7)}, leaf); err != nil {
			b.Fatal(err)
		}
	}
	q := s.Query()
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if churn {
			s.nodes[br].fsnap.invalidate()
		}
		sink += q.AvailCountLarger(br, 3.5)
	}
	_ = sink
}

func BenchmarkAvailCountLarger(b *testing.B) {
	for _, n := range []int{4, 16, 128, 1024} {
		b.Run("snapshot/n="+itoa(n), func(b *testing.B) { benchCountLarger(b, n, false, false) })
		b.Run("snapshot-churn/n="+itoa(n), func(b *testing.B) { benchCountLarger(b, n, true, false) })
		b.Run("ps-scan/n="+itoa(n), func(b *testing.B) { benchCountLarger(b, n, false, true) })
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
