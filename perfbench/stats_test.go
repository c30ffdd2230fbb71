package main

import "testing"

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		q      float64
		value  float64
		beyond int
	}{
		{0.5, 500, 500},
		{0.9, 900, 100},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
	} {
		got := percentile(xs, c.q)
		if got.Value != c.value || got.Beyond != c.beyond {
			t.Errorf("p%g = %+v, want value %g with %d beyond", c.q*100, got, c.value, c.beyond)
		}
	}
}

func TestPercentileBeyondSkipsTies(t *testing.T) {
	// Samples equal to the percentile are not beyond it.
	got := percentile([]float64{1, 2, 2, 2, 3}, 0.5)
	if got.Value != 2 || got.Beyond != 1 {
		t.Fatalf("got %+v, want value 2 with 1 beyond", got)
	}
	if got := percentile(nil, 0.5); got != (pctl{}) {
		t.Fatalf("empty sample gave %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median %g", got)
	}
	if xs[0] != 4 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestMaxConcurrent(t *testing.T) {
	starts := []float64{0, 1, 2, 5, 3}
	ends := []float64{3, 2, 4, 6, 3}
	// [0,3) [1,2) [2,4) [5,6) and an empty [3,3): at most two overlap;
	// [1,2) ends where [2,4) starts.
	if got := maxConcurrent(starts, ends); got != 2 {
		t.Fatalf("maxConcurrent = %d, want 2", got)
	}
}
