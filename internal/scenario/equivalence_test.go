package scenario

import (
	"reflect"
	"testing"

	"treesched/internal/core"
	"treesched/internal/rng"
	"treesched/internal/sched"
	"treesched/internal/sim"
	"treesched/internal/tree"
	"treesched/internal/workload"
)

// These tests pin the refactor's core promise: a scenario-driven run
// is byte-identical to the hand-wired construction it replaced, for
// every shape of cell the experiment grids and examples use. Each
// test wires one setup the pre-scenario way (explicit rng stream,
// explicit transforms, explicit constructors) and asserts the full
// per-job result matches.

func mustScenario(t *testing.T, sc *Scenario) *sim.Result {
	t.Helper()
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameRun(t *testing.T, got, want *sim.Result) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Fatalf("stats diverged:\n got  %+v\n want %+v", got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Jobs, want.Jobs) {
		t.Fatal("per-job metrics diverged")
	}
}

func classRounded(eps float64) workload.SizeDist {
	return workload.ClassRounded{Base: workload.UniformSize{Lo: 1, Hi: 16}, Eps: eps}
}

// T1/T3-shaped cell: identical endpoints, uniform speed augmentation.
func TestEquivalenceIdenticalGrid(t *testing.T) {
	const seed, eps, load, n = 1234, 0.5, 0.9, 400
	base := tree.FatTree(2, 2, 2)
	trace, err := workload.Poisson(rng.New(seed), workload.GenConfig{
		N: n, Size: classRounded(eps), Load: load, Capacity: float64(len(base.RootAdjacent())),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(base.WithUniformSpeed(1+eps), trace, core.NewGreedyIdentical(eps), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	got := mustScenario(t, &Scenario{
		Topology: NewSpec("fattree", 2, 2, 2),
		Workload: Workload{N: n, Size: NewSpec("uniform", 1, 16), ClassEps: eps, Load: load},
		Assigner: "greedy-identical",
		Eps:      eps,
		Seed:     seed,
		Speed:    Speed{Uniform: 1 + eps},
	})
	sameRun(t, got, want)
}

// T6-shaped cell: unrelated endpoints, per-level speed triple, class
// rounding after the transform.
func TestEquivalenceUnrelatedTripleSpeeds(t *testing.T) {
	const seed, eps, n = 77, 0.5, 300
	base := tree.BroomstickTree(2, 3, 2)
	r := rng.New(seed)
	trace, err := workload.Poisson(r, workload.GenConfig{
		N: n, Size: classRounded(eps), Load: 0.9, Capacity: float64(len(base.RootAdjacent())),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.MakeUnrelated(r, trace, workload.UnrelatedConfig{
		Leaves: len(base.Leaves()), Lo: 0.5, Hi: 2,
	}); err != nil {
		t.Fatal(err)
	}
	workload.RoundTraceToClasses(trace, eps)
	sped := base.WithSpeeds(2*(1+eps), 2*(1+eps)*(1+eps), 2*(1+eps)*(1+eps))
	want, err := sim.Run(sped, trace, core.NewGreedyUnrelated(eps), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	got := mustScenario(t, &Scenario{
		Topology: NewSpec("broomstick", 2, 3, 2),
		Workload: Workload{
			N: n, Size: NewSpec("uniform", 1, 16), ClassEps: eps, Load: 0.9,
			Unrelated: &Unrelated{Lo: 0.5, Hi: 2},
			RoundEps:  eps,
		},
		Assigner: "greedy-unrelated",
		Eps:      eps,
		Seed:     seed,
		Speed:    Speed{RootAdjacent: 2 * (1 + eps), Router: 2 * (1 + eps) * (1 + eps), Leaf: 2 * (1 + eps) * (1 + eps)},
	})
	sameRun(t, got, want)
}

// B1's adversarial column: a process that ignores size law and load.
func TestEquivalenceAdversarial(t *testing.T) {
	const seed, n = 42, 120
	base := tree.FatTree(2, 2, 2)
	trace := workload.Adversarial(rng.New(seed), n, 32)
	want, err := sim.Run(base, trace, sched.JoinShortestQueue{}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	got := mustScenario(t, &Scenario{
		Topology: NewSpec("fattree", 2, 2, 2),
		Workload: Workload{Process: NewSpec("adversarial", 32), N: n},
		Assigner: "jsq",
		Seed:     seed,
	})
	sameRun(t, got, want)
}

// M1's related row: per-leaf speed factors with a stateful assigner.
func TestEquivalenceRelatedMachines(t *testing.T) {
	const seed, n = 9, 250
	base := tree.FatTree(2, 1, 4)
	speeds := []float64{4, 2, 1, 1, 4, 2, 1, 1}
	poisson, err := workload.NewPoissonSource(rng.New(seed), workload.GenConfig{
		N: n, Size: classRounded(0.5), Load: 0.85, Capacity: float64(len(base.RootAdjacent())),
	})
	if err != nil {
		t.Fatal(err)
	}
	related, err := workload.NewRelatedSource(poisson, speeds)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.Collect(related)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(base, trace, &sched.RoundRobin{}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	got := mustScenario(t, &Scenario{
		Topology: NewSpec("fattree", 2, 1, 4),
		Workload: Workload{
			N: n, Size: NewSpec("uniform", 1, 16), ClassEps: 0.5, Load: 0.85,
			RelatedSpeeds: speeds,
		},
		Assigner: "roundrobin",
		Seed:     seed,
	})
	sameRun(t, got, want)
}

// B2-shaped cell: heavy-tailed sizes, explicit node policy.
func TestEquivalenceParetoPolicy(t *testing.T) {
	const seed, n = 5, 400
	base := tree.FatTree(2, 2, 2)
	trace, err := workload.Poisson(rng.New(seed), workload.GenConfig{
		N: n, Size: workload.ParetoSize{Min: 1, Alpha: 1.5, Cap: 200}, Load: 0.9,
		Capacity: float64(len(base.RootAdjacent())),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(base, trace, sched.LeastVolume{}, sim.Options{Policy: sim.SRPT{}})
	if err != nil {
		t.Fatal(err)
	}

	got := mustScenario(t, &Scenario{
		Topology: NewSpec("fattree", 2, 2, 2),
		Workload: Workload{N: n, Size: NewSpec("pareto", 1, 1.5, 200), Load: 0.9},
		Policy:   "srpt",
		Assigner: "leastvolume",
		Seed:     seed,
	})
	sameRun(t, got, want)
}

// The packetrouting example's first half: the packetized engine.
func TestEquivalencePacketized(t *testing.T) {
	const seed, n = 11, 200
	base := tree.Line(5)
	trace, err := workload.Poisson(rng.New(seed), workload.GenConfig{
		N: n, Size: workload.UniformSize{Lo: 2, Hi: 12}, Load: 0.6, Capacity: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunPacketized(base, trace, sched.ClosestLeaf{}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	got := mustScenario(t, &Scenario{
		Topology: NewSpec("line", 5),
		Workload: Workload{N: n, Size: NewSpec("uniform", 2, 12), Load: 0.6},
		Assigner: "closest",
		Seed:     seed,
		Engine:   Engine{Packetized: true},
	})
	sameRun(t, got, want)
}

// The heterogeneous example's shadow run: a constructor that can fail
// and keys off the unrelated signal.
func TestEquivalenceShadow(t *testing.T) {
	const seed, n = 21, 300
	base := tree.FatTree(2, 2, 2)
	r := rng.New(seed)
	trace, err := workload.Poisson(r, workload.GenConfig{
		N: n, Size: classRounded(0.5), Load: 0.85, Capacity: float64(len(base.RootAdjacent())),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.MakeUnrelated(r, trace, workload.UnrelatedConfig{
		Leaves: len(base.Leaves()), Lo: 0.8, Hi: 1.2, PInfeasible: 0.3, Penalty: 3,
	}); err != nil {
		t.Fatal(err)
	}
	sh, err := core.NewShadow(base, core.ShadowConfig{Eps: 0.5, Unrelated: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(base, trace, sh, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	got := mustScenario(t, &Scenario{
		Topology: NewSpec("fattree", 2, 2, 2),
		Workload: Workload{
			N: n, Size: NewSpec("uniform", 1, 16), ClassEps: 0.5, Load: 0.85,
			Unrelated: &Unrelated{Lo: 0.8, Hi: 1.2, PInfeasible: 0.3, Penalty: 3},
		},
		Assigner: "shadow",
		Seed:     seed,
	})
	sameRun(t, got, want)
}

// Randomized assigner seeding: AssignerSeed feeds rng.New verbatim.
func TestEquivalenceRandomAssigner(t *testing.T) {
	const seed, aseed, n = 3, 42, 300
	base := tree.FatTree(2, 2, 2)
	trace, err := workload.Poisson(rng.New(seed), workload.GenConfig{
		N: n, Size: classRounded(0.5), Load: 0.8, Capacity: float64(len(base.RootAdjacent())),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(base, trace, &sched.RandomLeaf{R: rng.New(aseed)}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	got := mustScenario(t, &Scenario{
		Topology:     NewSpec("fattree", 2, 2, 2),
		Workload:     Workload{N: n, Size: NewSpec("uniform", 1, 16), ClassEps: 0.5, Load: 0.8},
		Assigner:     "random",
		Seed:         seed,
		AssignerSeed: aseed,
	})
	sameRun(t, got, want)
}

// Weighted extension: MaxWeight draws from the same stream as the
// hand-wired AssignWeights call.
func TestEquivalenceWeights(t *testing.T) {
	const seed, n = 6, 200
	r := rng.New(seed)
	want, err := workload.Poisson(r, workload.GenConfig{
		N: n, Size: workload.UniformSize{Lo: 1, Hi: 16}, Load: 0.9, Capacity: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	workload.AssignWeights(r, want, 8)

	w := Workload{N: n, Size: NewSpec("uniform", 1, 16), Load: 0.9, Capacity: 2, MaxWeight: 8}
	got, err := w.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("weighted trace diverged from hand-wired construction")
	}
}
