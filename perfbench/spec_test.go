package main

import (
	"testing"
)

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the metric lists
// of this program in step: same names, units and order.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range sp.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	for _, c := range []struct {
		what      string
		json, got []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layer, perLayer}} {
		if len(c.json) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.what, len(c.json), len(c.got))
			continue
		}
		for i := range c.got {
			if c.json[i] != c.got[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, the program %v", c.what, i, c.json[i], c.got[i])
			}
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if len(sp.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(sp.Workloads), len(names))
	}
	for i, w := range sp.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, names[i])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}
