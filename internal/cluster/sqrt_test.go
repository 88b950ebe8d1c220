package cluster

import (
	"math"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/workload"
)

// newtonSqrt24 is the hand-rolled square root the simulator's jitter model
// shipped with before math.Sqrt replaced it on the hot path (24 Newton
// iterations per compute chunk, every simulated step).
func newtonSqrt24(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 24; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// TestMathSqrtPreservesChunkJitter pins that swapping the Newton loop for
// math.Sqrt did not change any simulated duration: the two differ by at most
// one ulp on the kernels-per-chunk domain, which vanishes in the nanosecond
// truncation of the jitter term (chunkCV · noise · chunk). The assertion is
// on the actual quantity the simulator computes from the root.
func TestMathSqrtPreservesChunkJitter(t *testing.T) {
	chunks := []time.Duration{time.Microsecond, time.Millisecond, 100 * time.Millisecond, 10 * time.Second}
	noises := []float64{-3.1, -1.0, -0.017, 0.5, 1.0, 2.9}
	for launches := 1; launches <= 200000; launches = launches*3/2 + 1 {
		for _, intervals := range []int{1, 2, 7, 33, 129, 1025} {
			k := float64(launches) / float64(intervals)
			if k < 1 {
				k = 1
			}
			newton, exact := 0.35/newtonSqrt24(k), 0.35/math.Sqrt(k)
			for _, chunk := range chunks {
				for _, n := range noises {
					a := time.Duration(newton * n * float64(chunk))
					b := time.Duration(exact * n * float64(chunk))
					if a != b {
						t.Fatalf("jitter changed at k=%v chunk=%v noise=%v: %d vs %d ns", k, chunk, n, a, b)
					}
				}
			}
		}
	}
}

// TestSimulatePinnedResults pins full Results for three representative
// configurations to the exact values the pre-refactor simulator (Newton
// sqrt, cluster-held defaults) produced — the regression net for the sqrt
// replacement and for the scenario-layer lowering that now builds Options.
func TestSimulatePinnedResults(t *testing.T) {
	type pin struct {
		mean, median, gpu, cpu, data, xfer, wait, clip, dwm, cwm, cap int64
	}
	for _, tc := range []struct {
		name  string
		cen   workload.Options
		ranks int
		dap   int
		mut   func(*Options)
		want  pin
	}{
		{
			name: "baseline-16x1", cen: workload.Baseline(), ranks: 16, dap: 1,
			want: pin{4487265107, 4562479626, 3436067146, 336629810, 0, 16526666, 587526205, 36285334, 0, 663722737, 0},
		},
		{
			name: "scalefold-64x8-graph", cen: workload.ScaleFold(8), ranks: 64, dap: 8,
			mut:  func(o *Options) { o.CUDAGraph = true; o.NonBlockingPipeline = true },
			want: pin{575868570, 578579230, 370485034, 42040000, 0, 67581562, 92517875, 0, 0, 94031337, 1355632000},
		},
		{
			name: "baseline-32x4", cen: func() workload.Options { o := workload.Baseline(); o.DAP = 4; return o }(),
			ranks: 32, dap: 4,
			want: pin{2332765820, 2332859126, 1334347274, 457161746, 0, 94889800, 338506491, 52271000, 0, 338742130, 0},
		},
	} {
		o := defaultOptions(7)
		o.Steps = 4
		if tc.mut != nil {
			tc.mut(&o)
		}
		r := mustSimulate(t, workload.Census(model.FullConfig(), tc.cen), tc.ranks, tc.dap, o)
		got := pin{
			int64(r.MeanStep), int64(r.MedianStep), int64(r.Break.GPUCompute),
			int64(r.Break.CPUExposed), int64(r.Break.DataWait), int64(r.Break.CommXfer),
			int64(r.Break.CommWait), int64(r.Break.ClipExposed),
			int64(r.Break.DataWaitMedian), int64(r.Break.CommWaitMedian), int64(r.GraphCapture),
		}
		if got != tc.want {
			t.Errorf("%s: Result drifted from the pre-refactor pin:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}
