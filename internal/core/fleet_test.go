package core

import (
	"fmt"
	"testing"

	"offload/internal/model"
	"offload/internal/serverless"
	"offload/internal/sim"
)

// fleetShardCounts are the partitions the shared-substrate fleet tests
// run at: the serial reference and a partition that puts the shared
// platform across a shard barrier from most UEs.
var fleetShardCounts = []int{1, 3}

// TestFleetValidation checks that the fleet constructor rejects the
// configurations a fleet has never supported, at every shard count.
func TestFleetValidation(t *testing.T) {
	for _, shards := range fleetShardCounts {
		cfg := DefaultConfig()
		cfg.ShardCount = shards
		if _, err := NewShardedFleet(cfg, 0); err == nil {
			t.Errorf("shards=%d: zero-device fleet accepted", shards)
		}
		bad := cfg
		bad.Batch = &BatchConfig{Size: 2}
		if _, err := NewShardedFleet(bad, 2); err == nil {
			t.Errorf("shards=%d: fleet with Batch accepted", shards)
		}
		bad = cfg
		bad.OffPeakShift = true
		if _, err := NewShardedFleet(bad, 2); err == nil {
			t.Errorf("shards=%d: fleet with OffPeakShift accepted", shards)
		}
		bad = cfg
		bad.CloudPath = nil
		if _, err := NewShardedFleet(bad, 2); err == nil {
			t.Errorf("shards=%d: fleet without cloud path accepted", shards)
		}
	}
}

func TestFleetSharesOnePlatform(t *testing.T) {
	for _, shards := range fleetShardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Policy = PolicyCloudAll
			cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
			cfg.ArrivalRateHint = 0.02
			cfg.ShardCount = shards
			fleet, err := NewShardedFleet(cfg, 8)
			if err != nil {
				t.Fatal(err)
			}
			if fleet.Size() != 8 || fleet.Shards() != shards {
				t.Fatalf("Size/Shards = %d/%d", fleet.Size(), fleet.Shards())
			}
			if err := fleet.SubmitStreams(0.02, 5); err != nil {
				t.Fatal(err)
			}
			fleet.Run()
			st := fleet.Stats()
			if st.Completed != 40 || st.Failed != 0 {
				t.Fatalf("Completed/Failed = %d/%d", st.Completed, st.Failed)
			}
			// All 40 invocations landed on the one shared platform.
			if got := fleet.Platform().Stats().Invocations; got != 40 {
				t.Fatalf("shared platform served %d invocations, want 40", got)
			}
			if st.ByPlacement[model.PlaceFunction] != 40 {
				t.Fatalf("ByPlacement = %v", st.ByPlacement)
			}
			if st.Table().Len() == 0 {
				t.Fatal("empty stats table")
			}
		})
	}
}

func TestFleetContendsOnConcurrencyLimit(t *testing.T) {
	// A tiny account limit makes simultaneous devices queue; the same load
	// with a large limit must not — also when the devices reach the shared
	// account from different shards.
	run := func(limit, shards int) float64 {
		cfg := DefaultConfig()
		cfg.Policy = PolicyCloudAll
		cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
		sl := serverless.LambdaLike()
		sl.ConcurrencyLimit = limit
		cfg.Serverless = &sl
		cfg.ShardCount = shards
		fleet, err := NewShardedFleet(cfg, 10)
		if err != nil {
			t.Fatal(err)
		}
		// All devices submit a burst at once.
		if err := fleet.SubmitStreams(100, 3); err != nil {
			t.Fatal(err)
		}
		fleet.Run()
		return fleet.Stats().MeanCompletion
	}
	for _, shards := range fleetShardCounts {
		constrained := run(1, shards)
		roomy := run(1000, shards)
		if constrained <= roomy*2 {
			t.Errorf("shards=%d: limit 1 (%g s) not slower than limit 1000 (%g s)", shards, constrained, roomy)
		}
	}
}

// TestFleetHonoursRetryMaxBackoff: the fleet builds its retry policy with
// the same helper as NewSystem, so capping the backoff shortens the
// completion of tasks that retry repeatedly.
func TestFleetHonoursRetryMaxBackoff(t *testing.T) {
	run := func(maxBackoff sim.Duration) FleetStats {
		cfg := DefaultConfig()
		cfg.Policy = PolicyCloudAll
		cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
		sl := serverless.LambdaLike()
		sl.FailureRate = 0.5
		cfg.Serverless = &sl
		cfg.Retries = 8
		cfg.RetryBackoff = 10
		cfg.RetryMaxBackoff = maxBackoff
		fleet, err := NewShardedFleet(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := fleet.SubmitStreams(0.05, 5); err != nil {
			t.Fatal(err)
		}
		fleet.Run()
		return fleet.Stats()
	}
	uncapped, capped := run(0), run(10)
	if uncapped.Retries == 0 {
		t.Fatal("no retries happened; the test exercises nothing")
	}
	if capped.MeanCompletion >= uncapped.MeanCompletion {
		t.Fatalf("RetryMaxBackoff ignored: capped mean %g s, uncapped %g s",
			capped.MeanCompletion, uncapped.MeanCompletion)
	}
}
