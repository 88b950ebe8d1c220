package main

import "testing"

// Spreads are quoted as Python's statistics module computes them, in the
// README too; summarize must agree with it.
func TestSummarizeMatchesPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want stats
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, stats{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4}, stats{1.8125, 3.75, 7.75}},
		{[]float64{5, 1}, stats{0, 3, 6}},
		{[]float64{2}, stats{2, 2, 2}},
	} {
		if got := summarize(tc.in); got != tc.want {
			t.Errorf("summarize(%v) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}
