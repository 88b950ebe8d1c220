// Package gpu models GPU execution for the cluster simulator: a roofline
// kernel cost model with size-dependent efficiency (small DAP-split kernels
// cannot saturate the memory system — the paper's "poor kernel scalability"),
// a CPU launch model with background-peak and garbage-collection noise, and
// CUDA Graph capture with the recycling-keyed graph cache of §3.2.
package gpu

import (
	"math"
	"time"
)

// Arch holds the performance envelope of a GPU architecture. Numbers are
// public datasheet values; what matters to the experiments is their ratio
// (the paper's H100/A100 reference speedup of 1.66× falls out of the
// bandwidth ratio because the workload is memory-bound).
type Arch struct {
	Name string
	// PeakFLOPS is the effective math throughput in FLOP/s for the training
	// datatype mix (TF32/bf16 tensor-core GEMMs).
	PeakFLOPS float64
	// PeakBW is the DRAM bandwidth in bytes/s.
	PeakBW float64
	// LaunchOverhead is the CPU cost of launching one kernel.
	LaunchOverhead time.Duration
	// GraphReplayOverhead is the CPU cost of replaying a captured graph.
	GraphReplayOverhead time.Duration
	// KernelFixed is the fixed on-GPU overhead per kernel (scheduling,
	// tail effects), paid even by tiny kernels.
	KernelFixed time.Duration
	// MemHalfSat is the per-kernel byte volume at which a memory-bound
	// kernel reaches 50% of peak bandwidth; MathHalfSat likewise for FLOPs.
	// These drive the efficiency cliff DAP pushes kernels off of.
	MemHalfSat  float64
	MathHalfSat float64
}

// A100 returns the NVIDIA A100-SXM4-80GB envelope.
func A100() Arch {
	return Arch{
		Name:                "A100",
		PeakFLOPS:           75e12, // effective TF32 tensor-core rate at AlphaFold GEMM sizes
		PeakBW:              2.0e12,
		LaunchOverhead:      6 * time.Microsecond,
		GraphReplayOverhead: 40 * time.Microsecond,
		KernelFixed:         1500 * time.Nanosecond,
		MemHalfSat:          2.5e6,
		MathHalfSat:         2.0e9,
	}
}

// H100 returns the NVIDIA H100-SXM5 envelope.
func H100() Arch {
	return Arch{
		Name:                "H100",
		PeakFLOPS:           190e12, // effective TF32 tensor-core rate at AlphaFold GEMM sizes
		PeakBW:              3.35e12,
		LaunchOverhead:      6 * time.Microsecond,
		GraphReplayOverhead: 40 * time.Microsecond,
		KernelFixed:         1200 * time.Nanosecond,
		MemHalfSat:          4.5e6,
		MathHalfSat:         3.0e9,
	}
}

// effMem is the fraction of peak bandwidth a kernel moving `bytes` achieves.
// Saturating curve: tiny kernels are latency-bound, big kernels stream.
func (a Arch) effMem(bytes float64) float64 {
	return bytes / (bytes + a.MemHalfSat)
}

// effMath is the fraction of peak FLOPs a kernel with `flops` work achieves.
func (a Arch) effMath(flops float64) float64 {
	return flops / (flops + a.MathHalfSat)
}

// KernelDuration costs one kernel by the roofline: the slower of its math
// time and its memory time at size-derated efficiency, plus fixed overhead.
// flatEff disables the efficiency derating (used by the Figure 3 ablation
// that idealizes kernel scalability).
func (a Arch) KernelDuration(flops, bytes float64, flatEff bool) time.Duration {
	em, ef := a.effMem(bytes), a.effMath(flops)
	if flatEff {
		em, ef = 0.85, 0.85
	}
	var mathT, memT float64
	if flops > 0 {
		mathT = flops / (a.PeakFLOPS * math.Max(ef, 1e-3))
	}
	if bytes > 0 {
		memT = bytes / (a.PeakBW * math.Max(em, 1e-3))
	}
	t := math.Max(mathT, memT)
	return time.Duration(t*float64(time.Second)) + a.KernelFixed
}

// CPUModel parameterizes the host-side noise of §3.1/§3.2: background
// processes sporadically pinning CPU cores (stretching kernel-launch times),
// and Python garbage-collection pauses.
type CPUModel struct {
	// PeakProb is the per-launch-window probability that a background CPU
	// peak is in progress; PeakStretch multiplies launch overhead during one.
	PeakProb    float64
	PeakStretch float64
	// GCEnabled injects a pause of GCPause every GCInterval launches.
	GCEnabled  bool
	GCPause    time.Duration
	GCInterval int
	// StragglerProb is the per-rank per-collective probability that a
	// background CPU peak delays the rank right before a sync point;
	// StragglerMean is the mean of the (exponential) delay. CUDA graphs cut
	// the probability by 5x because the GPU no longer waits on the host.
	StragglerProb float64
	StragglerMean time.Duration
}

// DefaultCPUModel matches the paper's observations: some cores are always at
// 100% utilization, slowing the training processes scheduled onto them, and
// Python GC periodically stalls the launch thread.
func DefaultCPUModel() CPUModel {
	return CPUModel{
		PeakProb:      0.08,
		PeakStretch:   2.5,
		GCEnabled:     true,
		GCPause:       3 * time.Millisecond,
		GCInterval:    4000,
		StragglerProb: 0.001,
		StragglerMean: 25 * time.Millisecond,
	}
}

// Quiet returns a CPU model with no noise sources (ablation use).
func Quiet() CPUModel { return CPUModel{} }
