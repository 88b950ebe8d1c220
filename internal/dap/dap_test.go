package dap

import "testing"

func TestNewPlanValid(t *testing.T) {
	p, err := NewPlan(1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.DPWays != 128 {
		t.Fatalf("DPWays %d", p.DPWays)
	}
}

func TestNewPlanRejectsBadDegrees(t *testing.T) {
	if _, err := NewPlan(128, 0); err == nil {
		t.Fatal("degree 0 must fail")
	}
	if _, err := NewPlan(4, 8); err == nil {
		t.Fatal("fewer ranks than degree must fail")
	}
	if _, err := NewPlan(100, 8); err == nil {
		t.Fatal("non-divisible must fail")
	}
}

func TestValidateBatchLimit(t *testing.T) {
	p, _ := NewPlan(256, 1)
	if err := p.Validate(1); err != nil {
		t.Fatalf("256-way DP at batch 1 is exactly the limit: %v", err)
	}
	p2, _ := NewPlan(512, 1)
	if err := p2.Validate(1); err == nil {
		t.Fatal("512-way DP must violate the 256 global-batch cap")
	}
	// DAP rescues the same 512 GPUs.
	p3, _ := NewPlan(512, 2)
	if err := p3.Validate(1); err != nil {
		t.Fatalf("DAP-2 on 512 GPUs must pass: %v", err)
	}
}

func TestMaxRanksForBatch(t *testing.T) {
	// The paper's headline: DAP-8 scales a 256 batch to 2048 training GPUs.
	if got := MaxRanksForBatch(256, 8); got != 2048 {
		t.Fatalf("MaxRanksForBatch = %d, want 2048", got)
	}
	// Batch above the cap is clamped.
	if got := MaxRanksForBatch(1000, 1); got != 256 {
		t.Fatalf("clamp failed: %d", got)
	}
	// FastFold's claim: DAP raises 128 to 512 with DAP-4.
	if got := MaxRanksForBatch(128, 4); got != 512 {
		t.Fatalf("FastFold scaling: %d", got)
	}
}
