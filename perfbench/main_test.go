package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmokeMetricNames runs every workload at tiny size, untraced and
// traced, and checks it passes its gates and emits exactly the metrics
// BENCHMARK.json lists, with their units.
func TestSmokeMetricNames(t *testing.T) {
	b := readBenchmark(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			res, err := execute(config{workload: w.Name, seed: 1, seconds: 0.01, trace: trace, tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if !res.line.Correct || res.line.Attempted == 0 {
				t.Errorf("%s trace=%t: not correct (%d/%d failed): %v", w.Name, trace,
					res.line.Failed, res.line.Attempted, res.report.Failures)
			}
			if len(res.line.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
	}
}

// TestSmokeInjectedWrongOutcome checks that a corrupted expectation (for
// fuzz, an injected certification bug) makes every workload's run
// incorrect.
func TestSmokeInjectedWrongOutcome(t *testing.T) {
	for _, w := range readBenchmark(t).Workloads {
		res, err := execute(config{workload: w.Name, seed: 1, seconds: 0.01, tiny: true, inject: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.line.Correct || res.line.Failed == 0 {
			t.Errorf("%s: injected wrong outcome went unnoticed", w.Name)
		}
		// The fuzz workload injects a semantics bug, which the findings
		// gate (not only the iteration count) must report.
		if w.Name == "fuzz" && !slices.ContainsFunc(res.report.Failures, func(f string) bool {
			return strings.HasSuffix(f, " findings")
		}) {
			t.Errorf("fuzz: injected certification bug raised no finding: %v", res.report.Failures)
		}
	}
}

// TestLayerMapCoversPerLayerMetrics checks layers.json assigns every
// per-layer metric to a layer exactly once.
func TestLayerMapCoversPerLayerMetrics(t *testing.T) {
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		Layers []struct {
			Metrics   []string `json:"metrics"`
			Workloads []string `json:"workloads"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(raw, &lm); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, l := range lm.Layers {
		for _, m := range l.Metrics {
			seen[m]++
		}
		for _, w := range l.Workloads {
			if _, ok := benches[w]; !ok {
				t.Errorf("layers.json names unknown workload %q", w)
			}
		}
	}
	var names []string
	for _, m := range readBenchmark(t).PerLayer {
		names = append(names, m.Name)
		if seen[m.Name] != 1 {
			t.Errorf("per-layer metric %s appears %d times in layers.json", m.Name, seen[m.Name])
		}
	}
	for m := range seen {
		if !slices.Contains(names, m) {
			t.Errorf("layers.json names %s, which BENCHMARK.json does not list", m)
		}
	}
}
