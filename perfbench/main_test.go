package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root must list exactly the metrics
// this program prints, with the same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, program %v", names, workloadNames())
	}
}

func TestReportRequiresEveryEndToEndMetric(t *testing.T) {
	out := &outcome{attempted: 1, values: map[string]float64{"setup_s": 1, "tasks_per_s": 2, "p50_ms": 3}}
	if _, err := buildReport(out, endToEnd, false); err == nil {
		t.Fatal("missing peak_rss_mb accepted")
	}
	out.values["peak_rss_mb"] = 4
	rep, err := buildReport(out, endToEnd, false)
	if err != nil || !rep.Correct || len(rep.Metrics) != len(endToEnd) {
		t.Fatalf("report %+v, %v", rep, err)
	}
	// Per-layer runs print every layer metric, 0 for layers not exercised.
	rep, err = buildReport(out, perLayer, true)
	if err != nil || len(rep.Metrics) != len(perLayer) || rep.Metrics["serve.shed"].Unit != "count" {
		t.Fatalf("per-layer report %+v, %v", rep, err)
	}
	out.problems = []string{"x"}
	if rep, _ := buildReport(out, endToEnd, false); rep.Correct {
		t.Fatal("a failed check left the report correct")
	}
	out.values["bogus"] = 1
	if _, err := buildReport(out, endToEnd, false); err == nil {
		t.Fatal("unknown metric accepted")
	}
}
