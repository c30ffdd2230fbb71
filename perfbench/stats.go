package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// when len(xs) is even), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pctl is one percentile of a sample together with how many samples lie
// strictly above it, so a reader can judge whether the sample supports
// that percentile.
type pctl struct {
	Value  float64
	Beyond int
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of samples
// sorted in ascending order, with the number of samples greater than it.
func percentile(sorted []float64, q float64) pctl {
	n := len(sorted)
	if n == 0 {
		return pctl{}
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	v := sorted[idx]
	above := sort.Search(n, func(i int) bool { return sorted[i] > v })
	return pctl{Value: v, Beyond: n - above}
}

// maxConcurrent returns the largest number of half-open intervals
// [start, end) that overlap at any instant. Empty intervals never count.
func maxConcurrent(starts, ends []float64) int {
	type edge struct {
		at    float64
		delta int
	}
	edges := make([]edge, 0, 2*len(starts))
	for i := range starts {
		if ends[i] > starts[i] {
			edges = append(edges, edge{starts[i], 1}, edge{ends[i], -1})
		}
	}
	// Ends sort before starts at the same instant: [a,b) and [b,c) do not
	// overlap.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	cur, best := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > best {
			best = cur
		}
	}
	return best
}
