package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"offload/internal/exp"
)

func TestRenderMatchesCommittedReport(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", goldenReport))
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenSections(string(raw))
	if len(golden) != 22 {
		t.Fatalf("%d sections in %s", len(golden), goldenReport)
	}
	e, err := exp.ByID("E2")
	if err != nil {
		t.Fatal(err)
	}
	runner := &exp.Runner{Scale: exp.Full(), Parallel: 1}
	res, err := runner.Run(context.Background(), []exp.Experiment{e})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderResult(res[0].ID, res[0].Claim, res[0].Tables); got != golden["E2"] {
		t.Fatalf("rendered E2:\n%s\ncommitted:\n%s", got, golden["E2"])
	}
}

func TestSuiteOrderDependsOnSeedOnly(t *testing.T) {
	_, a, err := suiteSetup("..", 1)
	if err != nil {
		t.Fatal(err)
	}
	_, b, _ := suiteSetup("..", 1)
	_, c, _ := suiteSetup("..", 2)
	same, differ := true, false
	for i := range a {
		same = same && a[i].ID == b[i].ID
		differ = differ || a[i].ID != c[i].ID
	}
	if !same || !differ || len(a) != len(suiteIDs) {
		t.Fatalf("order not a function of the seed: same %v, differs across seeds %v", same, differ)
	}
}
