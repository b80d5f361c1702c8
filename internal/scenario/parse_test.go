package scenario

import (
	"strings"
	"testing"

	"treesched/internal/rng"
	"treesched/internal/sched"
	"treesched/internal/sim"
)

func TestParseTopoValid(t *testing.T) {
	cases := []struct {
		spec   string
		leaves int
	}{
		{"fattree:2,2,2", 8},
		{"star:4", 4},
		{"line:3", 1},
		{"caterpillar:3,2", 6},
		{"broomstick:2,3,1", 4},
	}
	for _, c := range cases {
		tr, err := ParseTopo(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if len(tr.Leaves()) != c.leaves {
			t.Fatalf("%s: leaves = %d, want %d", c.spec, len(tr.Leaves()), c.leaves)
		}
	}
}

func TestParseTopoRandomReproducible(t *testing.T) {
	a, err := ParseTopo("random:2,4,2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseTopo("random:2,4,2")
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() {
		t.Fatal("random topology spec is not reproducible")
	}
}

func TestParseTopoErrors(t *testing.T) {
	for _, spec := range []string{
		"", "mesh:2", "fattree:2,2", "fattree:a,b,c", "star", "line:0",
	} {
		if _, err := ParseTopo(spec); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
}

func TestParseTopoLinePanicsOnZero(t *testing.T) {
	// line:0 should error, not panic (generator panics are translated).
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("ParseTopo(line:0) panicked: %v", r)
		}
	}()
	_, _ = ParseTopo("line:0")
}

// Generator panics (out-of-range shape parameters) must come back as
// errors carrying the spec context prefix.
func TestParseTopoPanicRecovery(t *testing.T) {
	for _, spec := range []string{"line:0", "fattree:0,1,1", "star:-3"} {
		_, err := ParseTopo(spec)
		if err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
		wantPrefix := `topology "` + spec + `": `
		if !strings.HasPrefix(err.Error(), wantPrefix) {
			t.Fatalf("spec %q: error %q lacks prefix %q", spec, err.Error(), wantPrefix)
		}
	}
}

func TestParseSize(t *testing.T) {
	u, err := ParseSize("uniform:1,16")
	if err != nil {
		t.Fatal(err)
	}
	if u.Mean() != 8.5 {
		t.Fatalf("uniform mean %v", u.Mean())
	}
	b, err := ParseSize("bimodal:1,100,0.05")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() == "" {
		t.Fatal("empty name")
	}
	p, err := ParseSize("pareto:1,1.5,200")
	if err != nil {
		t.Fatal(err)
	}
	if p.Mean() <= 0 {
		t.Fatal("pareto mean")
	}
	for _, spec := range []string{"uniform:1", "normal:0,1", "pareto:1,2", "bimodal:x,y,z"} {
		if _, err := ParseSize(spec); err == nil {
			t.Fatalf("size spec %q accepted", spec)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"sjf", "fifo", "srpt", "lcfs", "ps"} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.EqualFold(p.Name(), name) {
			t.Fatalf("policy %q resolved to %q", name, p.Name())
		}
	}
	if _, err := ParsePolicy("edf"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestParseAssigner(t *testing.T) {
	tr, err := ParseTopo("star:2")
	if err != nil {
		t.Fatal(err)
	}
	ctx := AssignerContext{Tree: tr, Eps: 0.5, Seed: 1}
	for _, name := range []string{"greedy", "shadow", "closest", "random", "roundrobin", "leastvolume", "minpath", "jsq"} {
		a, err := ParseAssigner(name, ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() == "" {
			t.Fatalf("%s: empty name", name)
		}
	}
	// Unrelated variant switches the greedy implementation.
	uctx := ctx
	uctx.Unrelated = true
	a, err := ParseAssigner("greedy", uctx)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "GreedyUnrelated" {
		t.Fatalf("unrelated greedy resolved to %q", a.Name())
	}
	if _, err := ParseAssigner("oracle", ctx); err == nil {
		t.Fatal("unknown assigner accepted")
	}
}

// The randomized baseline is seeded verbatim: the registry's assigner
// must make exactly the same choices as a hand-built RandomLeaf.
func TestParseAssignerRandomSeedCompat(t *testing.T) {
	tr, err := ParseTopo("fattree:2,2,2")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 8
	got, err := ParseAssigner("random", AssignerContext{Tree: tr, Eps: 0.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want := &sched.RandomLeaf{R: rng.New(seed)}
	s := sim.New(tr, sim.Options{})
	for i := 0; i < 50; i++ {
		a := sim.Arrival{ID: i, Size: 1}
		if g, w := got.Assign(s.Query(), &a), want.Assign(s.Query(), &a); g != w {
			t.Fatalf("draw %d: registry chose leaf %d, direct rng.New(seed) chose %d", i, g, w)
		}
	}
}

// The registries are the spec grammar's single source of truth; these
// cases pin every error message byte for byte so registry refactors
// cannot silently change what the tools print.
func TestParserErrorMessages(t *testing.T) {
	cases := []struct {
		name string
		got  func() error
		want string
	}{
		{"topo empty", func() error { _, err := ParseTopo(""); return err },
			`empty spec`},
		{"topo bad int", func() error { _, err := ParseTopo("fattree:a,b,c"); return err },
			`topology "fattree:a,b,c": arg "a" is not an integer`},
		{"topo float arg", func() error { _, err := ParseTopo("fattree:2.5,2,2"); return err },
			`topology "fattree:2.5,2,2": arg "2.5" is not an integer`},
		{"topo arg count", func() error { _, err := ParseTopo("fattree:2,2"); return err },
			`topology fattree needs 3 args, got 2`},
		{"topo extra args", func() error { _, err := ParseTopo("star:1,2"); return err },
			`topology star needs 1 args, got 2`},
		{"topo unknown", func() error { _, err := ParseTopo("mesh:2"); return err },
			`unknown topology "mesh" (want fattree|star|line|caterpillar|broomstick|random)`},
		{"size arg count", func() error { _, err := ParseSize("uniform:1"); return err },
			`uniform needs lo,hi`},
		{"size bimodal count", func() error { _, err := ParseSize("bimodal:1,100"); return err },
			`bimodal needs small,big,pbig`},
		{"size pareto count", func() error { _, err := ParseSize("pareto:1,1.5"); return err },
			`pareto needs min,alpha,cap`},
		{"size bad number", func() error { _, err := ParseSize("uniform:x,16"); return err },
			`size "uniform:x,16": arg "x" is not a number`},
		{"size unknown", func() error { _, err := ParseSize("normal:0,1"); return err },
			`unknown size distribution "normal" (want uniform|bimodal|pareto)`},
		{"policy unknown", func() error { _, err := ParsePolicy("edf"); return err },
			`unknown policy "edf" (want sjf|fifo|srpt|lcfs|ps|wsjf)`},
		{"assigner unknown", func() error { _, err := ParseAssigner("oracle", AssignerContext{Eps: 0.5, Seed: 2}); return err },
			`unknown assigner "oracle" (want greedy|greedy-identical|greedy-unrelated|shadow|closest|random|roundrobin|leastvolume|minpath|jsq)`},
	}
	for _, c := range cases {
		err := c.got()
		if err == nil {
			t.Fatalf("%s: no error", c.name)
		}
		if err.Error() != c.want {
			t.Fatalf("%s:\n got  %q\n want %q", c.name, err.Error(), c.want)
		}
	}
}
