package cluster

import (
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/workload"
)

// defaultOptions returns a production-like H100 setup.
func defaultOptions(seed int64) Options {
	return Options{
		Arch:      gpu.H100(),
		Topo:      comm.Eos(),
		CPU:       gpu.DefaultCPUModel(),
		Workers:   10,
		Prefetch:  32,
		PrepModel: dataset.DefaultPrepTimeModel(),
		Seed:      seed,
		Steps:     6,
	}
}

func quickOpts(seed int64) Options {
	o := defaultOptions(seed)
	o.Steps = 3
	return o
}

func baselineProg() *workload.Program {
	return workload.Census(model.FullConfig(), workload.Baseline())
}

// mustSimulate is Simulate for a plan the test knows is valid.
func mustSimulate(tb testing.TB, prog *workload.Program, ranks, dapDegree int, o Options) Result {
	tb.Helper()
	r, err := Simulate(prog, ranks, dapDegree, o)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func TestSimulateDeterministic(t *testing.T) {
	p := baselineProg()
	a := mustSimulate(t, p, 16, 1, quickOpts(5))
	b := mustSimulate(t, p, 16, 1, quickOpts(5))
	if a.MeanStep != b.MeanStep || a.MedianStep != b.MedianStep {
		t.Fatal("same seed must reproduce")
	}
	c := mustSimulate(t, p, 16, 1, quickOpts(6))
	if c.MeanStep == a.MeanStep {
		t.Fatal("different seed should differ")
	}
}

func TestH100BeatsA100(t *testing.T) {
	p := baselineProg()
	oh := quickOpts(1)
	oa := quickOpts(1)
	oa.Arch = gpu.A100()
	if mustSimulate(t, p, 16, 1, oh).MedianStep >= mustSimulate(t, p, 16, 1, oa).MedianStep {
		t.Fatal("H100 step must be faster than A100")
	}
}

func TestDAPReducesStepTimeWithDiminishingReturns(t *testing.T) {
	mk := func(d int) time.Duration {
		o := workload.ScaleFold(d)
		p := workload.Census(model.FullConfig(), o)
		co := quickOpts(1)
		co.CUDAGraph = d > 1
		co.NonBlockingPipeline = true
		return mustSimulate(t, p, 16*d, d, co).MedianStep
	}
	d1, d2, d4, d8 := mk(1), mk(2), mk(4), mk(8)
	if !(d2 < d1 && d4 < d2 && d8 <= d4) {
		t.Fatalf("DAP must monotonically help: %v %v %v %v", d1, d2, d4, d8)
	}
	// Diminishing returns: DAP-8 is far from 8x.
	if float64(d1)/float64(d8) > 6 {
		t.Fatalf("DAP-8 speedup %v implausibly close to ideal", float64(d1)/float64(d8))
	}
}

func TestCUDAGraphRemovesCPUExposure(t *testing.T) {
	p := baselineProg()
	plain := quickOpts(2)
	graphed := quickOpts(2)
	graphed.CUDAGraph = true
	rp := mustSimulate(t, p, 16, 1, plain)
	rg := mustSimulate(t, p, 16, 1, graphed)
	// Launch overhead disappears; only the Python-GC host stall remains
	// until the Disable-GC optimization removes it too.
	if rg.Break.CPUExposed*2 >= rp.Break.CPUExposed {
		t.Fatalf("graphs must slash CPU exposure: %v vs %v", rg.Break.CPUExposed, rp.Break.CPUExposed)
	}
	quiet := graphed
	quiet.CPU.GCEnabled = false
	rq := mustSimulate(t, p, 16, 1, quiet)
	if rq.Break.CPUExposed*10 >= rp.Break.CPUExposed {
		t.Fatalf("graphs+no-GC must nearly eliminate CPU exposure: %v", rq.Break.CPUExposed)
	}
	if rg.GraphCapture == 0 {
		t.Fatal("graph capture cost must be accounted")
	}
	if rp.GraphCapture != 0 {
		t.Fatal("no capture without graphs")
	}
}

func TestNonBlockingPipelineReducesDataWait(t *testing.T) {
	// Use a fast step so the prefetch horizon shrinks and stalls appear.
	o := workload.ScaleFold(8)
	p := workload.Census(model.FullConfig(), o)
	blocking := quickOpts(3)
	blocking.CUDAGraph = true
	blocking.Steps = 6
	nonBlocking := blocking
	nonBlocking.NonBlockingPipeline = true
	rb := mustSimulate(t, p, 64, 8, blocking)
	rn := mustSimulate(t, p, 64, 8, nonBlocking)
	if rn.Break.DataWait > rb.Break.DataWait {
		t.Fatalf("non-blocking pipeline must not wait more: %v vs %v", rn.Break.DataWait, rb.Break.DataWait)
	}
}

func TestPerfectBalanceRemovesCommWait(t *testing.T) {
	o := workload.Baseline()
	o.DAP = 4
	p := workload.Census(model.FullConfig(), o)
	noisy := quickOpts(4)
	balanced := quickOpts(4)
	balanced.PerfectBalance = true
	rn := mustSimulate(t, p, 32, 4, noisy)
	rb := mustSimulate(t, p, 32, 4, balanced)
	if rb.Break.CommWait >= rn.Break.CommWait && rn.Break.CommWait > 0 {
		t.Fatal("perfect balance must reduce straggler waits")
	}
	if rb.Break.DataWait != 0 {
		t.Fatal("perfect balance zeroes data waits")
	}
}

func TestZeroSerialRemovesSerialTime(t *testing.T) {
	p := baselineProg()
	normal := mustSimulate(t, p, 16, 1, quickOpts(5))
	ablate := quickOpts(5)
	ablate.ZeroSerial = true
	ablated := mustSimulate(t, p, 16, 1, ablate)
	if ablated.Break.SerialPart != 0 {
		t.Fatal("ZeroSerial must remove serial groups")
	}
	if ablated.Break.GPUCompute >= normal.Break.GPUCompute {
		t.Fatal("removing serial groups must reduce compute")
	}
}

func TestFlatEfficiencySpeedsUpDAPKernels(t *testing.T) {
	o := workload.Baseline()
	o.DAP = 8
	p := workload.Census(model.FullConfig(), o)
	normal := mustSimulate(t, p, 16, 8, quickOpts(6))
	flat := quickOpts(6)
	flat.FlatEfficiency = true
	flattened := mustSimulate(t, p, 16, 8, flat)
	if flattened.Break.GPUCompute >= normal.Break.GPUCompute {
		t.Fatal("flat efficiency must speed up DAP-shrunk kernels")
	}
}

func TestZeroCommVolume(t *testing.T) {
	o := workload.Baseline()
	o.DAP = 4
	p := workload.Census(model.FullConfig(), o)
	normal := mustSimulate(t, p, 32, 4, quickOpts(7))
	free := quickOpts(7)
	free.ZeroCommVolume = true
	freed := mustSimulate(t, p, 32, 4, free)
	if freed.Break.CommXfer >= normal.Break.CommXfer {
		t.Fatal("zero comm volume must reduce transfer time")
	}
}

func TestInvalidPlanErrors(t *testing.T) {
	if _, err := Simulate(baselineProg(), 10, 4, quickOpts(1)); err == nil {
		t.Fatal("expected an error for a bad DAP plan")
	}
}

func TestBreakdownComponentsRoughlySumToStep(t *testing.T) {
	p := baselineProg()
	r := mustSimulate(t, p, 16, 1, quickOpts(8))
	sum := r.Break.GPUCompute + r.Break.CPUExposed + r.Break.DataWait +
		r.Break.CommXfer + r.Break.CommWait + r.Break.ClipExposed
	// The mean step equals the components up to jitter (<15%).
	ratio := float64(r.MeanStep) / float64(sum)
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("breakdown does not account for the step: step=%v sum=%v", r.MeanStep, sum)
	}
}

func TestMedianRobustToStalls(t *testing.T) {
	// With many ranks and a blocking loader at a fast step, mean >= median.
	o := workload.ScaleFold(8)
	p := workload.Census(model.FullConfig(), o)
	co := quickOpts(9)
	co.CUDAGraph = true
	co.Steps = 6
	r := mustSimulate(t, p, 256, 8, co)
	if float64(r.MedianStep) > 1.15*float64(r.MeanStep) {
		t.Fatalf("median %v should not far exceed mean %v", r.MedianStep, r.MeanStep)
	}
}

func TestGCDisableHelps(t *testing.T) {
	p := baselineProg()
	on := quickOpts(10)
	off := quickOpts(10)
	off.CPU.GCEnabled = false
	ron := mustSimulate(t, p, 16, 1, on)
	roff := mustSimulate(t, p, 16, 1, off)
	if roff.Break.CPUExposed >= ron.Break.CPUExposed {
		t.Fatal("disabling GC must reduce CPU exposure")
	}
}
