package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"offload/internal/callgraph"
	"offload/internal/core"
	"offload/internal/dag"
	"offload/internal/device"
	"offload/internal/network"
	"offload/internal/serverless"
	"offload/internal/workload"
)

func TestSimulateRowsAreJobNodes(t *testing.T) {
	g := callgraph.MLBatch()
	var buf bytes.Buffer
	if err := simulatePlan(&buf, g, 1, 30, 0.05); err != nil {
		t.Fatal(err)
	}
	plan, err := core.PlanApp(g, core.PlanOptions{
		Device: device.Smartphone(), Serverless: serverless.LambdaLike(),
		CloudPath: network.WiFiCloud(), Seed: 1, ProfileRuns: 30, ProfileNoise: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := workload.JobFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	remote := map[string]bool{}
	for _, name := range plan.Remote {
		remote[name] = true
	}

	var rows [][]string
	var summary string
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "run: "):
			summary = line
		case len(f) == 6 && (f[1] == "device" || f[1] == "cloud"):
			rows = append(rows, f)
		}
	}
	if len(rows) != job.Len() {
		t.Fatalf("%d rows for %d job nodes:\n%s", len(rows), job.Len(), buf.String())
	}
	sum := 0.0
	for i, r := range rows {
		if want := job.Node(dag.NodeID(i)).Name; r[0] != want {
			t.Errorf("row %d is %s, want node %s", i, r[0], want)
		}
		side := "device"
		if remote[r[0]] {
			side = "cloud"
		}
		if r[1] != side {
			t.Errorf("%s ran on the %s, plan says %s", r[0], r[1], side)
		}
		usd, err := strconv.ParseFloat(r[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += usd
	}
	var makespan, billed, mJ float64
	if _, err := fmt.Sscanf(summary, "run: %g s makespan, $%g billed, %g mJ device energy",
		&makespan, &billed, &mJ); err != nil || makespan <= 0 || mJ <= 0 {
		t.Fatalf("summary %q: %v", summary, err)
	}
	// Rows and summary print six significant digits each.
	if math.Abs(billed-sum) > 1e-5*billed {
		t.Errorf("summary bills $%g, rows sum to $%g", billed, sum)
	}
}
