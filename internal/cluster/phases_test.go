package cluster

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// BenchmarkSimulatePhases times Simulate's four phases one at a time — the
// skeleton, the data-wait precompute, the step march and the reduction — on
// the Figure 7 ScaleFold configuration at DAP-8 (CUDA graphs, non-blocking
// loader, serial). Each phase reruns on the previous phases' output, built
// once outside the timer, so its ns/op and allocs/op are its own and the
// four sum to one BenchmarkClusterSimulateDAP8 iteration. The skeleton built
// outside the timer prices the census, so the skeleton phase times a priced
// census, as every cell after a census's first does. The seed is fixed,
// so every iteration repeats the same draws. CI appends the run to
// BENCH_sim.json, where a speed-up claim shows which phase it moved.
func BenchmarkSimulatePhases(b *testing.B) {
	cen := workload.ScaleFold(8)
	cen.TorchCompile = false // Figure 7 predates torch.compile
	prog := workload.Census(model.FullConfig(), cen)
	o := defaultOptions(1)
	o.CUDAGraph = true
	o.NonBlockingPipeline = true
	for _, ranks := range []int{256, 1024} {
		s, err := NewSkeleton(prog, ranks, 8, o)
		if err != nil {
			b.Fatal(err)
		}
		waits := s.dataWaits()
		stats := s.march(waits)
		for _, phase := range []struct {
			name string
			run  func()
		}{
			{"skeleton", func() { NewSkeleton(prog, ranks, 8, o) }},
			{"data-waits", func() { s.dataWaits() }},
			{"march", func() { s.march(waits) }},
			{"reduce", func() { s.reduce(waits, stats) }},
		} {
			b.Run(fmt.Sprintf("ranks=%d/%s", ranks, phase.name), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					phase.run()
				}
			})
		}
	}
}
