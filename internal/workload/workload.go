// Package workload generates the per-step kernel census of the AlphaFold
// training step: for every module of the model (at full AlphaFold geometry)
// it emits kernel groups with launch counts, FLOP and byte volumes, derived
// from the tensor shapes. The census is the single source of truth shared by
// the Table 1 reproduction, the Figure 3 barrier ablation and the Figure 7/8
// step-time experiments: applying a ScaleFold optimization (fused kernels,
// batched GEMMs, torch.compile, bf16, DAP, disabling gradient checkpointing)
// transforms the census, and the gpu/cluster packages turn it into time.
package workload

import (
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/gpu"
)

// Category classifies a kernel the way Table 1 does.
type Category int

// Table 1 kernel categories.
const (
	CatMath  Category = iota // matrix-matrix multiplications
	CatMem                   // memory-bound elementwise/reduction kernels
	CatMemOp                 // memory copies and sets
)

func (c Category) String() string {
	switch c {
	case CatMath:
		return "math-bounded"
	case CatMem:
		return "memory-bounded"
	case CatMemOp:
		return "memory-operation"
	}
	return "?"
}

// Group is a population of similar kernel launches.
type Group struct {
	Name    string
	Cat     Category
	Calls   int     // kernel launches in this group per step
	Flops   float64 // total FLOPs across the group
	Bytes   float64 // total DRAM bytes across the group
	Serial  bool    // not parallelizable by DAP (structure module, optimizer)
	Fusable bool    // an elementwise fragment torch.compile can fuse
}

// PerCallFlops returns the FLOPs of one launch in the group.
func (g Group) PerCallFlops() float64 {
	if g.Calls == 0 {
		return 0
	}
	return g.Flops / float64(g.Calls)
}

// PerCallBytes returns the bytes of one launch in the group.
func (g Group) PerCallBytes() float64 {
	if g.Calls == 0 {
		return 0
	}
	return g.Bytes / float64(g.Calls)
}

// Cost prices the group on a by the roofline: kernel is the GPU time of
// all its calls, and exposedLaunch the launch overhead they leave exposed,
// since a call shorter than its launch leaves the GPU idle for the gap.
// flatEff disables the size-derated efficiency (gpu.Arch.KernelDuration).
func (g Group) Cost(a gpu.Arch, flatEff bool) (kernel, exposedLaunch time.Duration) {
	perCall := a.KernelDuration(g.PerCallFlops(), g.PerCallBytes(), flatEff)
	if gap := a.LaunchOverhead - perCall; gap > 0 {
		exposedLaunch = time.Duration(g.Calls) * gap
	}
	return time.Duration(g.Calls) * perCall, exposedLaunch
}

// SyncPoint is a DAP collective inserted between compute segments.
type SyncPoint struct {
	Op    comm.Op
	Bytes float64 // per-event payload per rank
	Count int     // number of such events per step
}

// Program is the whole step: compute groups plus DAP sync points and the
// final data-parallel gradient all-reduce. Census builds it and it is
// read-only afterwards, which is what lets it memoize its Price; share it
// by pointer and never copy it.
type Program struct {
	Groups      []Group
	Syncs       []SyncPoint
	GradBytes   float64 // gradient volume for the DP all-reduce
	ClipKernels int     // launches used by gradient clipping
	OptKernels  int     // informational: optimizer launches (subset of Groups)

	priceMu sync.Mutex
	prices  []pricedAs // one per (arch, flatEff, zeroSerial) priced so far
}

// Price is a census's step priced on one arch: Group.Cost summed over the
// priced groups. Every field is an integer sum, so it is exact in any order.
type Price struct {
	Kernel        time.Duration // roofline GPU time of every launch
	Serial        time.Duration // the part of Kernel in serial groups
	Launches      int           // kernel launches per step
	ExposedLaunch time.Duration // launch overhead the kernels leave exposed
}

type priceKey struct {
	arch                gpu.Arch
	flatEff, zeroSerial bool
}

type pricedAs struct {
	key   priceKey
	price Price
}

// Price returns the step priced on a, leaving out the serial groups when
// zeroSerial holds; flatEff is Group.Cost's. The first call per (a, flatEff,
// zeroSerial) walks the groups, later ones read the memo. Safe for
// concurrent use.
func (p *Program) Price(a gpu.Arch, flatEff, zeroSerial bool) Price {
	k := priceKey{a, flatEff, zeroSerial}
	p.priceMu.Lock()
	defer p.priceMu.Unlock()
	for _, e := range p.prices {
		if e.key == k {
			return e.price
		}
	}
	var pr Price
	for _, g := range p.Groups {
		if zeroSerial && g.Serial {
			continue
		}
		d, exposed := g.Cost(a, flatEff)
		pr.Kernel += d
		if g.Serial {
			pr.Serial += d
		}
		pr.Launches += g.Calls
		pr.ExposedLaunch += exposed
	}
	p.prices = append(p.prices, pricedAs{k, pr})
	return pr
}

// Options selects which ScaleFold optimizations transform the census. The
// JSON form is the `census` object of the scenario wire format (package
// scenario); adding a field here must be reflected in the scenario canonical
// encoding, which the scenario schema test enforces.
type Options struct {
	FusedMHA     bool `json:"fused_mha,omitempty"`
	FusedLN      bool `json:"fused_ln,omitempty"`
	FusedAdamSWA bool `json:"fused_adam_swa,omitempty"`
	BatchedGEMM  bool `json:"batched_gemm,omitempty"`
	TorchCompile bool `json:"torch_compile,omitempty"`
	BF16         bool `json:"bf16,omitempty"`
	// GradCheckpoint recomputes the forward during backward (baseline: on).
	GradCheckpoint bool `json:"grad_checkpoint,omitempty"`
	// Recycles is the number of no-grad recycling iterations before the
	// final with-grad iteration (baseline: 3).
	Recycles int `json:"recycles,omitempty"`
	// DAP is the dynamic-axial-parallelism degree (1 = off).
	DAP int `json:"dap,omitempty"`
	// BucketedClip reuses DDP flat buffers for the gradient norm (§3.3.1).
	BucketedClip bool `json:"bucketed_clip,omitempty"`
}

// Baseline returns the unoptimized OpenFold reference configuration.
func Baseline() Options {
	return Options{GradCheckpoint: true, Recycles: 3, DAP: 1}
}

// ScaleFold returns the fully optimized configuration at the given DAP
// degree (checkpointing disabled per §4.1 once DAP frees memory).
func ScaleFold(dap int) Options {
	return Options{
		FusedMHA: true, FusedLN: true, FusedAdamSWA: true,
		BatchedGEMM: true, TorchCompile: true, BF16: true,
		GradCheckpoint: dap <= 1, Recycles: 3, DAP: dap,
		BucketedClip: true,
	}
}

// passes returns the number of forward-equivalent passes the trunk makes per
// step: `Recycles` no-grad forwards, one with-grad forward, the checkpoint
// recomputation, and the backward (≈2 forward-equivalents of kernels).
func (o Options) passes() int {
	p := o.Recycles + 1 + 2
	if o.GradCheckpoint {
		p++
	}
	return p
}

const f32 = 4.0

// bytesPerElem returns the activation element size under the precision mode.
func (o Options) bytesPerElem() float64 {
	if o.BF16 {
		// Not everything drops to 2 bytes: softmax statistics, layer norms
		// and the optimizer master weights stay fp32, so the effective
		// traffic reduction the paper measured is 1.24× rather than 2×.
		return 2.6
	}
	return f32
}
