package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedMetric `json:"end_to_end"`
	PerLayer []namedMetric `json:"per_layer"`
}

type namedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload for one second, untraced against a
// freshly built carserved and traced in process, and checks that each run
// is correct and emits exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if !testing.Short() {
		t.Skip("the smoke runs with -short; the full benchmark runs via run.sh")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "carserved")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/carserved")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building carserved: %v\n%s", err, out)
	}
	for _, w := range c.Workloads {
		for trace, want := range map[int][]namedMetric{0: c.EndToEnd, 1: c.PerLayer} {
			rep, err := runBench(options{workload: w.Name, seed: 1, seconds: 1, trace: trace,
				bin: bin, workdir: t.TempDir(), setups: 1})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
