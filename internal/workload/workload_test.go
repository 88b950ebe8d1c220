package workload

import (
	"math"
	"testing"

	"repro/internal/model"
)

func baseline() *Program { return Census(model.FullConfig(), Baseline()) }

func TestTable1CallCounts(t *testing.T) {
	p := baseline()
	tot := p.Totals()
	checks := []struct {
		cat  Category
		want int
	}{
		{CatMath, 18147},
		{CatMem, 97749},
		{CatMemOp, 34991},
	}
	for _, c := range checks {
		got := tot[c.cat].Calls
		if math.Abs(float64(got-c.want))/float64(c.want) > 0.15 {
			t.Fatalf("%v calls %d, want within 15%% of %d", c.cat, got, c.want)
		}
	}
	if total := p.TotalCalls(); math.Abs(float64(total-150887))/150887 > 0.15 {
		t.Fatalf("total calls %d, want ~150887", total)
	}
}

func TestMemoryBoundDominates(t *testing.T) {
	tot := baseline().Totals()
	if tot[CatMem].Calls <= tot[CatMath].Calls*3 {
		t.Fatal("memory-bound launches must far exceed math-bound (Table 1)")
	}
	if tot[CatMem].Bytes <= tot[CatMath].Bytes {
		t.Fatal("memory-bound kernels must dominate traffic")
	}
}

func TestFusionReducesCallsAndBytes(t *testing.T) {
	base := baseline().Totals()
	fused := Census(model.FullConfig(), ScaleFold(1)).Totals()
	baseCalls := base[CatMath].Calls + base[CatMem].Calls + base[CatMemOp].Calls
	fusedCalls := fused[CatMath].Calls + fused[CatMem].Calls + fused[CatMemOp].Calls
	if fusedCalls >= baseCalls {
		t.Fatalf("fusion must reduce launches: %d vs %d", fusedCalls, baseCalls)
	}
	baseBytes := base[CatMath].Bytes + base[CatMem].Bytes + base[CatMemOp].Bytes
	fusedBytes := fused[CatMath].Bytes + fused[CatMem].Bytes + fused[CatMemOp].Bytes
	if fusedBytes >= baseBytes {
		t.Fatalf("fusion must reduce traffic: %g vs %g", fusedBytes, baseBytes)
	}
}

func TestDAPDividesWorkNotCalls(t *testing.T) {
	o1 := Baseline()
	o8 := Baseline()
	o8.DAP = 8
	p1 := Census(model.FullConfig(), o1)
	p8 := Census(model.FullConfig(), o8)
	t1, t8 := p1.Totals(), p8.Totals()
	if t8[CatMem].Calls != t1[CatMem].Calls {
		t.Fatal("DAP must not change the launch count per rank")
	}
	// Non-serial bytes divide; serial bytes don't, so the ratio is < 8.
	ratio := t1[CatMem].Bytes / t8[CatMem].Bytes
	if ratio < 4 || ratio > 8 {
		t.Fatalf("DAP-8 byte ratio %v, want in (4, 8]", ratio)
	}
}

func TestDAPInsertsCollectives(t *testing.T) {
	o := Baseline()
	o.DAP = 4
	p := Census(model.FullConfig(), o)
	if len(p.Syncs) == 0 {
		t.Fatal("DAP must insert sync points")
	}
	var events int
	for _, s := range p.Syncs {
		events += s.Count
		if s.Bytes <= 0 {
			t.Fatal("sync payload must be positive")
		}
	}
	if events < 100 {
		t.Fatalf("expected hundreds of sync events per step, got %d", events)
	}
	if len(baseline().Syncs) != 0 {
		t.Fatal("DAP-1 must have no sync points")
	}
}

func TestGradCheckpointAddsAPass(t *testing.T) {
	with := Baseline()
	without := Baseline()
	without.GradCheckpoint = false
	bw := Census(model.FullConfig(), with).Totals()
	bo := Census(model.FullConfig(), without).Totals()
	if bw[CatMem].Calls <= bo[CatMem].Calls {
		t.Fatal("checkpointing must add recompute kernels")
	}
	// passes 7 vs 6.
	ratio := float64(bw[CatMem].Calls) / float64(bo[CatMem].Calls)
	if ratio < 1.1 || ratio > 1.25 {
		t.Fatalf("checkpoint ratio %v, want ~7/6", ratio)
	}
}

func TestBF16ReducesTrafficAndMathTime(t *testing.T) {
	fp32 := Baseline()
	bf16 := Baseline()
	bf16.BF16 = true
	p32 := Census(model.FullConfig(), fp32).Totals()
	p16 := Census(model.FullConfig(), bf16).Totals()
	ratio := p32[CatMem].Bytes / p16[CatMem].Bytes
	if ratio < 1.3 || ratio > 2.0 {
		t.Fatalf("bf16 byte ratio %v, want in [1.3, 2.0] (paper: 1.24x step speedup)", ratio)
	}
	if p16[CatMath].Flops >= p32[CatMath].Flops {
		t.Fatal("bf16 must discount tensor-core math time")
	}
}

func TestFusedAdamRemovesPerTensorLaunches(t *testing.T) {
	base := Baseline()
	fused := Baseline()
	fused.FusedAdamSWA = true
	pb := Census(model.FullConfig(), base)
	pf := Census(model.FullConfig(), fused)
	if pb.OptKernels < ParamTensors {
		t.Fatalf("unfused optimizer must launch per tensor: %d", pb.OptKernels)
	}
	if pf.OptKernels > 1000 {
		t.Fatalf("fused optimizer must launch O(1): %d", pf.OptKernels)
	}
	if pf.ClipKernels >= pb.ClipKernels {
		t.Fatal("fused path must also shrink clip launches")
	}
}

func TestBucketedClipKernels(t *testing.T) {
	o := Baseline()
	o.BucketedClip = true
	p := Census(model.FullConfig(), o)
	if p.ClipKernels > 100 {
		t.Fatalf("bucketed clip should need tens of launches, got %d", p.ClipKernels)
	}
	if baseline().ClipKernels < 2*ParamTensors {
		t.Fatal("naive clip launches twice per tensor")
	}
}

func TestBatchedGEMMQuartersProjectionLaunches(t *testing.T) {
	base := baseline().Totals()
	o := Baseline()
	o.BatchedGEMM = true
	batched := Census(model.FullConfig(), o).Totals()
	saved := base[CatMath].Calls - batched[CatMath].Calls
	if saved <= 0 {
		t.Fatal("batching must remove GEMM launches")
	}
}

func TestTorchCompileShrinksFusableGroups(t *testing.T) {
	o := Baseline()
	o.TorchCompile = true
	base := baseline().Totals()
	compiled := Census(model.FullConfig(), o).Totals()
	if compiled[CatMem].Calls >= base[CatMem].Calls {
		t.Fatal("compile must fuse elementwise launches")
	}
}

func TestPerCallHelpers(t *testing.T) {
	g := Group{Calls: 4, Flops: 8, Bytes: 16}
	if g.PerCallFlops() != 2 || g.PerCallBytes() != 4 {
		t.Fatal("per-call math")
	}
	z := Group{}
	if z.PerCallFlops() != 0 || z.PerCallBytes() != 0 {
		t.Fatal("zero-call group")
	}
}

func TestCensusScalesWithGeometry(t *testing.T) {
	small := Census(model.SmallConfig(), Baseline())
	full := baseline()
	if small.TotalCalls() >= full.TotalCalls() {
		t.Fatal("smaller geometry must emit fewer kernels")
	}
	st, ft := small.Totals(), full.Totals()
	if st[CatMem].Bytes >= ft[CatMem].Bytes {
		t.Fatal("smaller geometry must move fewer bytes")
	}
}
