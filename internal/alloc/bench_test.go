package alloc

import (
	"testing"

	"offload/internal/serverless"
)

// BenchmarkChoose sizes a function over the 159-rung Lambda ladder: the
// allocator's share of every deadline-aware placement decision.
func BenchmarkChoose(b *testing.B) {
	a := New(serverless.LambdaLike())
	req := Request{Cycles: 3e10, ParallelFraction: 0.8,
		MemoryFloorBytes: 1 << 30, ColdStartProb: 0.3, TimeBudget: 300}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Choose(req); err != nil {
			b.Fatal(err)
		}
	}
}
