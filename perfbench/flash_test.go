package main

import (
	"runtime"
	"testing"
)

func TestFlashFingerprintIsShardCountInvariant(t *testing.T) {
	const ues = 400
	shards := runtime.NumCPU()
	if shards < 2 {
		shards = 2
	}
	one, err := runFlashPass(3, 1, ues, false)
	if err != nil {
		t.Fatal(err)
	}
	many, err := runFlashPass(3, shards, ues, true)
	if err != nil {
		t.Fatal(err)
	}
	if one.fingerprint != many.fingerprint {
		t.Fatalf("1 shard: %s\n%d shards: %s", one.fingerprint, shards, many.fingerprint)
	}
	if one.bad != 0 || many.bad != 0 {
		t.Fatalf("unsettled tasks: %v %v", one.problems, many.problems)
	}
	if many.decide == nil || many.decide.calls(spanDecide) == 0 {
		t.Fatal("traced pass sampled no Decide calls")
	}
}
