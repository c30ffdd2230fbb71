// Fleet: many devices, one cloud account. A single device can never see
// shared-resource contention; a fleet sharing one serverless region (one
// account concurrency limit, one function pool) can. This example runs
// the same burst of work through fleets against a roomy and a throttled
// account, and shows where the account limit starts queueing everyone.
//
//	go run ./examples/fleet
package main

import (
	"fmt"

	"offload"
)

func main() {
	run := func(devices, concurrencyLimit int) (offload.FleetStats, uint64) {
		cfg := offload.DefaultConfig()
		cfg.Policy = offload.PolicyCloudAll
		cfg.Edge, cfg.EdgePath, cfg.VM = nil, nil, nil
		sl := offload.LambdaLike()
		sl.ConcurrencyLimit = concurrencyLimit
		cfg.Serverless = &sl
		cfg.ArrivalRateHint = 0.5 // bursty: everyone submits at once

		fleet, err := offload.NewShardedFleet(cfg, devices)
		if err != nil {
			panic(err)
		}
		// Every device submits three tasks in a tight burst.
		if err := fleet.SubmitStreams(0.5, 3); err != nil {
			panic(err)
		}
		fleet.Run()
		return fleet.Stats(), fleet.Platform().Stats().Invocations
	}

	fmt.Println("40 devices × 3 tasks, bursty submission, one shared account:")
	fmt.Printf("  %-22s %-14s %-12s %s\n", "account limit", "mean (s)", "miss", "invocations")
	for _, limit := range []int{1000, 20, 4} {
		st, inv := run(40, limit)
		fmt.Printf("  %-22d %-14.1f %-12s %d\n",
			limit, st.MeanCompletion, fmt.Sprintf("%.1f%%", 100*st.MissRate()), inv)
	}
	fmt.Println()
	fmt.Println("the roomy account absorbs the burst; the throttled accounts queue it.")
	fmt.Println("deadlines in the minutes-to-hours range absorb even heavy throttling —")
	fmt.Println("one more place the non-time-critical assumption relaxes capacity planning.")
}
