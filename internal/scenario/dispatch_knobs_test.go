package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"treesched/internal/rng"
	"treesched/internal/sim"
)

// runKnobsOff runs sc with the dispatch fast paths disabled: epoch
// memoization in the Query accessors and bound pruning in the greedy
// assigners both fall back to their straight-line reference code. The
// knobs are per-instance options, so concurrent tests never see them.
func runKnobsOff(t *testing.T, sc *Scenario, shards int) (*sim.Result, error, []sim.Slice) {
	t.Helper()
	c := *sc
	c.Engine.Shards = shards
	in, err := c.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := in.useReferenceDispatch(); err != nil {
		t.Fatalf("reference dispatch: %v", err)
	}
	return runWarm(t, newRunner(in))
}

// ndjsonBytes serializes a result the way the CLI does — stats header
// plus one compact JSON object per job — so the comparison below is a
// byte-level statement about observable output, not just struct
// equality under reflection.
func ndjsonBytes(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteNDJSON(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestDispatchKnobsDifferential is the determinism contract for the
// memoized/pruned dispatch path: across 60 randomized scenarios
// covering every state-querying assigner (greedy, shadow, jsq,
// leastvolume) under every policy, running with the fast paths
// enabled and force-disabled must produce byte-identical NDJSON
// output — the memo may only ever return the same bits a fresh
// recomputation would, and pruning may only skip candidates that
// cannot win. Both the sequential and the sharded engine are held to
// the contract, including scenarios that legitimately fail.
func TestDispatchKnobsDifferential(t *testing.T) {
	t.Parallel()
	topos := []string{"fattree:4,1,2", "fattree:8,1,2", "fattree:2,2,2", "star:8", "caterpillar:4,2", "broomstick:6,2,2", "random:4,3,3"}
	policies := []string{"sjf", "fifo", "srpt", "ps", "lcfs", "wsjf"}
	assigners := []string{"greedy", "shadow", "jsq", "leastvolume"}
	faultSpecs := []string{"", "", "faults=outages:3,6", "faults=brownouts:3,6,0.5",
		"faults=leafloss:1,0.6 recovery=redispatch", "faults=leafloss:1,0.6 recovery=hold"}
	variants := []string{"", "", "", "stream"}

	r := rng.New(97)
	pick := func(xs []string) string { return xs[int(r.Uint64()%uint64(len(xs)))] }
	for i := 0; i < 60; i++ {
		pol := pick(policies)
		line := fmt.Sprintf("topo=%s n=120 size=uniform:1,16 load=0.9 policy=%s assigner=%s seed=%d",
			pick(topos), pol, pick(assigners), i+101)
		if fs := pick(faultSpecs); fs != "" {
			line += " " + fs
		}
		if v := pick(variants); v != "" {
			line += " " + v
		}
		if pol == "wsjf" {
			line += " maxweight=4"
		}
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			t.Parallel()
			sc, err := ParseCompact(line)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			for _, shards := range []int{1, 4} {
				onRes, onErr, _ := runWithShards(t, sc, shards)
				offRes, offErr, _ := runKnobsOff(t, sc, shards)
				if onErr != nil || offErr != nil {
					if onErr == nil || offErr == nil || onErr.Error() != offErr.Error() {
						t.Fatalf("%s (shards=%d):\n  fast err %v\n  ref err  %v", line, shards, onErr, offErr)
					}
					continue
				}
				if on, off := ndjsonBytes(t, onRes), ndjsonBytes(t, offRes); !bytes.Equal(on, off) {
					t.Fatalf("%s (shards=%d): NDJSON output diverges between memoized+pruned and reference dispatch", line, shards)
				}
			}
		})
	}
}

// TestDispatchKnobsWindows holds the greedy fast paths to the
// reference dispatch, byte for byte (NDJSON and slice log), in the
// regimes that pick between them: overloaded speed-1 trees, whose
// root-adjacent windows run past the short-window bound and take the
// snapshot, against speed-1.5 trees, whose windows stay short and
// whose idle branches end the descent; packetized jobs, which put
// several tasks of one ID in a window; PS and SRPT, where the running
// task's key or share drifts between events; and trees of unequal
// depth, where the idle exit meets depth pruning.
func TestDispatchKnobsWindows(t *testing.T) {
	t.Parallel()
	const common = " size=uniform:1,16 class=0.5 assigner=greedy"
	lines := []string{
		"topo=fattree:2,2,2 speed=1 n=1500 load=1.05 policy=sjf seed=1 slices" + common,
		"topo=fattree:8,1,2 speed=1.5 n=1500 load=0.95 policy=sjf seed=2 slices" + common,
		"topo=fattree:2,2,2 speed=1 n=500 load=1.05 policy=sjf seed=3 packetized slices" + common,
		"topo=fattree:2,2,2 speed=1.5 n=500 load=0.95 policy=sjf seed=4 packetized slices" + common,
		"topo=fattree:4,1,2 speed=1 n=1500 load=1.05 policy=ps seed=5" + common,
		"topo=fattree:4,1,2 speed=1.5 n=1500 load=0.95 policy=ps seed=6" + common,
		"topo=fattree:4,1,2 speed=1 n=1500 load=1.05 policy=srpt seed=7 slices" + common,
		"topo=fattree:4,1,2 speed=1.5 n=1500 load=0.95 policy=srpt seed=8 slices" + common,
		"topo=broomstick:6,2,2 speed=1.5 n=1500 load=0.95 policy=sjf seed=9 slices" + common,
		"topo=broomstick:6,2,2 speed=1 n=1500 load=1.05 policy=srpt seed=10 slices" + common,
		"topo=random:4,3,3 speed=1.5 n=1500 load=0.95 policy=sjf seed=11 slices" + common,
		"topo=random:4,3,3 speed=1 n=1500 load=1.05 policy=sjf seed=12 slices" + common,
	}
	for i, line := range lines {
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			t.Parallel()
			fast, fastSlices := runCold(t, line, false)
			ref, refSlices := runCold(t, line, true)
			if !bytes.Equal(fast, ref) {
				t.Fatalf("%s: NDJSON output diverges between fast and reference dispatch", line)
			}
			if !reflect.DeepEqual(fastSlices, refSlices) {
				t.Fatalf("%s: slice logs diverge (%d vs %d)", line, len(fastSlices), len(refSlices))
			}
		})
	}
}

// runCold builds and runs a scenario line on a fresh engine, with the
// reference dispatch when reference is set, and returns its NDJSON and
// slice log.
func runCold(t *testing.T, line string, reference bool) ([]byte, []sim.Slice) {
	t.Helper()
	sc, err := ParseCompact(line)
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	in, err := sc.Build()
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	if reference {
		if err := in.useReferenceDispatch(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := in.Run()
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	var slices []sim.Slice
	if sc.Engine.RecordSlices {
		slices = append(slices, res.Sim.Slices()...)
	}
	return ndjsonBytes(t, res), slices
}
