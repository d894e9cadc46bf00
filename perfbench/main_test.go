package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"stir/perfbench/harness"
)

// TestMetricsMatchBenchmarkJSON keeps the metrics perfbench prints and the
// ones BENCHMARK.json declares identical, name for name and unit for unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	acc := &phase{
		use:         harness.Delta{Wall: time.Second},
		tweets:      100,
		passes:      1,
		attempted:   100,
		rates:       []float64{100},
		cpuPerTweet: []float64{1000},
		liveHeap:    []float64{1e6},
		admitted:    []float64{1},
		queries:     []harness.Query{{}},
	}
	check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: perfbench prints %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for _, m := range want {
			g, ok := got[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s declared but not printed", kind, m.Name)
			case g.Unit != m.Unit:
				t.Errorf("%s: %s printed in %q, declared in %q", kind, m.Name, g.Unit, m.Unit)
			}
		}
	}
	check("end_to_end", endToEnd(1, acc), spec.EndToEnd)
	l := &layers{rec: harness.NewRecorder()}
	check("per_layer", perLayer(&batch{}, l, acc, acc, 1, 1), spec.PerLayer)
}
