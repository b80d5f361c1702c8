package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"treesched/internal/core"
	"treesched/internal/sched"
	"treesched/internal/sim"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatches pins BENCHMARK.json to the metric and
// workload sets the program prints.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v, the program has %d", names, len(workloads))
	}
	check := func(set string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", set, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", set, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestTinyRuns runs every workload at a tiny scale, untraced and
// traced. Each must print every metric of its set with its unit and
// pass its output checks; those checks include that traced outputs
// are byte-identical to untraced ones (sink bytes on stream-deep,
// per-job results on offline-greedy, completion bytes against the
// traced replay on serve).
func TestTinyRuns(t *testing.T) {
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", trace,
					"--scale", "0.005", "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d: %s", res.Correct, res.Failed, res.Attempted, stderr.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
				}
				if !strings.HasPrefix(lines[0], "perfbench meta {") {
					t.Errorf("no run metadata line: %q", lines[0])
				}
			})
		}
	}
}

// TestWrapperKeepsOblivious checks that the traced assigner carries
// the oblivious marker exactly when the wrapped assigner does: the
// engine type-asserts sim.ObliviousAssigner to choose its parallel
// oblivious path, so a wrapper that dropped the marker would time a
// different engine path than the untraced run.
func TestWrapperKeepsOblivious(t *testing.T) {
	tr := &tracer{}
	for _, c := range []struct {
		inner     sim.Assigner
		oblivious bool
	}{
		{&sched.RoundRobin{}, true},
		{sched.ClosestLeaf{}, true},
		{sched.LeastVolume{}, false},
		{core.NewGreedyIdentical(0.5), false},
	} {
		w := traceAssigner(c.inner, tr.layer("assign", ""))
		if _, ok := w.(sim.ObliviousAssigner); ok != c.oblivious {
			t.Errorf("%s: wrapped oblivious=%v, want %v", c.inner.Name(), ok, c.oblivious)
		}
		if w.Name() != c.inner.Name() {
			t.Errorf("wrapped name %q, want %q", w.Name(), c.inner.Name())
		}
	}
}

func TestParseCompletion(t *testing.T) {
	line := []byte(`{"ID":42,"Release":1.5,"Completion":7.25e-7,"Flow":3,"Leaf":9,"PathWork":2,"Weight":1}`)
	id, c, ok := parseCompletion(line)
	if !ok || id != 42 || c != 7.25e-7 {
		t.Errorf("parseCompletion = %d, %v, %v", id, c, ok)
	}
	for _, bad := range []string{``, `{"ID":x,"Completion":1,}`, `{"ID":1,"Release":2}`, `{"Completion":1,"ID":2,}`} {
		if _, _, ok := parseCompletion([]byte(bad)); ok {
			t.Errorf("parseCompletion(%q) accepted", bad)
		}
	}
}
