package analytic

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/perturb"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the fidelity golden file")

// scaleFoldScenario mirrors scalefold.Figure7Config without importing the
// package (scalefold imports analytic; the test must not close the cycle).
func scaleFoldScenario(platform string, ranks, dapN int) scenario.Scenario {
	return scenario.Scenario{
		Platform: platform, Ranks: ranks, DAP: dapN,
		Census: workload.Options{
			FusedMHA: true, FusedLN: true, FusedAdamSWA: true,
			BatchedGEMM: true, BF16: true, BucketedClip: true,
			GradCheckpoint: dapN <= 1,
			Recycles:       3,
			DAP:            dapN,
		},
		CUDAGraph:   dapN > 1,
		NonBlocking: true,
		Seed:        1,
	}
}

func baselineScenario(platform string, ranks int) scenario.Scenario {
	return scenario.Scenario{
		Platform: platform, Ranks: ranks, DAP: 1,
		Census: workload.Baseline(),
		Seed:   1,
	}
}

// exact runs the ground-truth simulator for the scenario, the way the
// scalefold layer would.
func exact(t *testing.T, s scenario.Scenario) cluster.Result {
	t.Helper()
	o, err := s.Options()
	if err != nil {
		t.Fatalf("Options: %v", err)
	}
	n, err := s.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	res, err := cluster.Simulate(workload.Full(n.Census), n.Ranks, n.DAP, o)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	return res
}

// exactMemo shares each fidelity scenario's exact Result between the tests
// that compare against it, so the corpus simulates once per package run.
var exactMemo = sweep.NewCache[cluster.Result]()

func exactFor(t *testing.T, name string, s scenario.Scenario) cluster.Result {
	t.Helper()
	res, _ := exactMemo.Do(name, func() cluster.Result { return exact(t, s) })
	return res
}

// fidelityScenarios is the containment corpus for this package's own tests:
// representative healthy cells across profiles and ablations plus the
// perturbation regimes, each at DAP 2 and at DAP 1, where every rank
// marches alone. The full default-grid property test lives in package
// scalefold next to the sweep layer that consumes the bounds.
func fidelityScenarios() map[string]scenario.Scenario {
	out := map[string]scenario.Scenario{
		"scalefold-h100x256-dap2": scaleFoldScenario("H100", 256, 2),
		"scalefold-h100x128-dap1": scaleFoldScenario("H100", 128, 1),
		"scalefold-h100x512-dap4": scaleFoldScenario("H100", 512, 4),
		"baseline-a100x128":       baselineScenario("A100", 128),
		"baseline-a100x32":        baselineScenario("A100", 32),
	}
	for _, ab := range scenario.Ablations {
		s := scaleFoldScenario("H100", 256, 2)
		s.Ablation = ab
		out["ablate-"+ab] = s
	}
	perturbs := map[string]perturb.Spec{
		"fail-mid":   {FailProb: 1e-3, RestartCost: 60},
		"fail-heavy": {FailProb: 1e-2, RestartCost: 120},
		"stalls":     {StallRate: 0.05, StallMean: 2},
		"slowdown":   {SlowdownProb: 0.02, SlowdownFactor: 1.5},
		"combo":      {SlowdownProb: 0.01, SlowdownFactor: 2, StallRate: 0.02, StallMean: 1, FailProb: 5e-4, RestartCost: 90},
	}
	for name, p := range perturbs {
		s := scaleFoldScenario("H100", 256, 2)
		cp := p
		s.Perturb = &cp
		out["perturb-"+name] = s
		d1 := scaleFoldScenario("H100", 128, 1)
		d1.Perturb = &cp
		out["perturb-"+name+"-dap1"] = d1
	}
	return out
}

// fidelityGolden is one corpus scenario's pinned outputs: the estimate, its
// bounds and the exact simulator's Result.
type fidelityGolden struct {
	Estimate cluster.Result `json:"estimate"`
	Bounds   Bounds         `json:"bounds"`
	Exact    cluster.Result `json:"exact"`
}

// TestEstimateContainsExact is the containment contract at package level:
// for every corpus scenario the exact simulator's Result lands inside the
// estimate's own stated Bounds. It also pins all three values to
// testdata/fidelity.golden, so a refactor of either the simulator or the
// estimator that moves one bit fails here. Regenerate deliberately with
// `go test ./internal/analytic -run ContainsExact -update`.
func TestEstimateContainsExact(t *testing.T) {
	path := filepath.Join("testdata", "fidelity.golden")
	want := map[string]json.RawMessage{}
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (generate with -update): %v", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	got := map[string]fidelityGolden{}
	t.Cleanup(func() {
		if !*update {
			return
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	for name, s := range fidelityScenarios() {
		s := s
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, bounds, err := Estimate(s)
			if err != nil {
				t.Fatalf("Estimate: %v", err)
			}
			ex := exactFor(t, name, s)
			if err := bounds.Check(ex); err != nil {
				t.Errorf("%v\n  estimate mean=%v median=%v goodput=%.4f restarts=%d\n  exact    mean=%v median=%v goodput=%.4f restarts=%d",
					err, res.MeanStep, res.MedianStep, res.Goodput, res.Restarts,
					ex.MeanStep, ex.MedianStep, ex.Goodput, ex.Restarts)
			}
			g := fidelityGolden{Estimate: res, Bounds: bounds, Exact: ex}
			if *update {
				mu.Lock()
				got[name] = g
				mu.Unlock()
				return
			}
			data, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			var pinned bytes.Buffer
			if err := json.Compact(&pinned, want[name]); err != nil {
				t.Fatalf("no golden entry for %s: %v", name, err)
			}
			if pinned.String() != string(data) {
				t.Errorf("outputs drifted from %s:\n got %s\nwant %s", path, data, pinned.String())
			}
		})
	}
}

// TestEstimateDeterministicSkeletonExact pins the components the estimator
// promises to reproduce bit for bit on every corpus scenario: the
// census-derived breakdown fields, the graph-capture cost and the plan match
// the simulator exactly.
func TestEstimateDeterministicSkeletonExact(t *testing.T) {
	for name, s := range fidelityScenarios() {
		res, _, err := Estimate(s)
		if err != nil {
			t.Fatalf("%s: Estimate: %v", name, err)
		}
		ex := exactFor(t, name, s)
		for _, f := range []struct {
			field      string
			est, exact any
		}{
			{"GPUCompute", res.Break.GPUCompute, ex.Break.GPUCompute},
			{"SerialPart", res.Break.SerialPart, ex.Break.SerialPart},
			{"CPUExposed", res.Break.CPUExposed, ex.Break.CPUExposed},
			{"CommXfer", res.Break.CommXfer, ex.Break.CommXfer},
			{"ClipExposed", res.Break.ClipExposed, ex.Break.ClipExposed},
			{"GraphCapture", res.GraphCapture, ex.GraphCapture},
			{"Plan", res.Plan, ex.Plan},
		} {
			if f.est != f.exact {
				t.Errorf("%s: %s: estimate %+v, exact %+v", name, f.field, f.est, f.exact)
			}
		}
	}
}

// TestEstimateDeterministic pins that Estimate is a pure function: repeated
// calls return identical results and bounds (auto-mode escalation sets would
// otherwise drift between runs).
func TestEstimateDeterministic(t *testing.T) {
	s := scaleFoldScenario("H100", 256, 2)
	s.Perturb = &perturb.Spec{FailProb: 1e-3, RestartCost: 60, StallRate: 0.01, StallMean: 1}
	r1, b1, err := Estimate(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r2, b2, err := Estimate(s)
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatalf("Estimate result drifted between calls:\n%+v\n%+v", r1, r2)
		}
		if b1 != b2 {
			t.Fatalf("Estimate bounds drifted between calls:\n%+v\n%+v", b1, b2)
		}
	}
}

// TestEstimateHealthyIsExactOnResilience pins the deterministic resilience
// fields of a healthy cluster: goodput exactly 1 and zero restarts, with
// zero-width bounds saying so.
func TestEstimateHealthyIsExactOnResilience(t *testing.T) {
	res, bounds, err := Estimate(scaleFoldScenario("H100", 256, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Goodput != 1 {
		t.Errorf("healthy goodput must be exactly 1, got %v", res.Goodput)
	}
	if res.Restarts != 0 {
		t.Errorf("healthy restarts must be 0, got %d", res.Restarts)
	}
	if bounds.Goodput != (Bound{Lo: 1, Hi: 1}) {
		t.Errorf("healthy goodput bound must be [1,1], got %+v", bounds.Goodput)
	}
	if bounds.Restarts.Width() != 0 {
		t.Errorf("healthy restarts bound must be zero-width, got %+v", bounds.Restarts)
	}
	if bounds.StallShare.Width() != 0 {
		t.Errorf("healthy stall-share bound must be zero-width, got %+v", bounds.StallShare)
	}
}

func TestEstimateRejectsInvalidScenario(t *testing.T) {
	bad := scaleFoldScenario("H100", 256, 2)
	bad.Ranks = 255 // not divisible by DAP
	if _, _, err := Estimate(bad); err == nil {
		t.Fatal("Estimate accepted an invalid scenario")
	}
	unknown := scaleFoldScenario("H100", 256, 2)
	unknown.Platform = "TPU-9000"
	if _, _, err := Estimate(unknown); err == nil {
		t.Fatal("Estimate accepted an unknown platform")
	}
}

// TestEstimateModeInvariant pins that Mode does not change the physics: the
// same scenario estimates identically whatever mode tag it carries.
func TestEstimateModeInvariant(t *testing.T) {
	base := scaleFoldScenario("H100", 256, 2)
	r0, b0, err := Estimate(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{scenario.ModeExact, scenario.ModeAnalytic, scenario.ModeAuto} {
		s := base
		s.Mode = mode
		r, b, err := Estimate(s)
		if err != nil {
			t.Fatal(err)
		}
		if r != r0 || b != b0 {
			t.Fatalf("mode %q changed the estimate", mode)
		}
	}
}

// TestAblationsOrderEstimates sanity-checks the estimator's physics: every
// idealization estimates a mean step no worse than the measured config.
func TestAblationsOrderEstimates(t *testing.T) {
	base := scaleFoldScenario("H100", 256, 2)
	r0, _, err := Estimate(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, ab := range scenario.Ablations[1:] {
		s := base
		s.Ablation = ab
		r, _, err := Estimate(s)
		if err != nil {
			t.Fatalf("%s: %v", ab, err)
		}
		if r.MeanStep > r0.MeanStep {
			t.Errorf("ablation %q estimated slower than the measured config: %v > %v", ab, r.MeanStep, r0.MeanStep)
		}
	}
}

func TestShouldEscalate(t *testing.T) {
	// Healthy cells carry zero-width goodput bounds: never escalate.
	_, healthy, err := Estimate(scaleFoldScenario("H100", 256, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ShouldEscalate(healthy) {
		t.Errorf("healthy bounds must not escalate: %+v", healthy)
	}
	// A fail probability in the cliff region makes the restart count — and
	// with it goodput — genuinely bimodal over 6 steps: escalate.
	s := scaleFoldScenario("H100", 256, 2)
	s.Perturb = &perturb.Spec{FailProb: 2e-4, RestartCost: 120}
	_, cliff, err := Estimate(s)
	if err != nil {
		t.Fatal(err)
	}
	if !ShouldEscalate(cliff) {
		t.Errorf("cliff-region bounds must escalate: goodput bound %+v", cliff.Goodput)
	}
	// Policy fields are honored.
	if (Policy{GoodputWidth: 2, MeanStepRel: 2}).ShouldEscalate(cliff) {
		t.Error("permissive policy must not escalate")
	}
}

func TestMaxGauss(t *testing.T) {
	if got := maxGauss(1); got != 0 {
		t.Errorf("maxGauss(1) = %v, want 0", got)
	}
	// E[max of 2 std normals] = 1/sqrt(pi) ~ 0.5642.
	if got, want := maxGauss(2), 1/math.Sqrt(math.Pi); math.Abs(got-want) > 0.05*want {
		t.Errorf("maxGauss(2) = %v, want ~%v", got, want)
	}
	prev := 0.0
	for _, n := range []int{2, 4, 16, 256, 4096} {
		g := maxGauss(n)
		if g <= prev {
			t.Errorf("maxGauss must increase with n: maxGauss(%d)=%v <= %v", n, g, prev)
		}
		prev = g
	}
	// Known reference point: E[max of 100] ~ 2.5.
	if g := maxGauss(100); g < 2.3 || g > 2.7 {
		t.Errorf("maxGauss(100) = %v, want ~2.5", g)
	}
}

func TestBinomQuantile(t *testing.T) {
	if got := binomQuantile(10, 0, 0.99); got != 0 {
		t.Errorf("p=0 quantile = %d, want 0", got)
	}
	if got := binomQuantile(10, 1, 0.5); got != 10 {
		t.Errorf("p=1 quantile = %d, want 10", got)
	}
	// Median of Binomial(10, 0.5) is 5.
	if got := binomQuantile(10, 0.5, 0.5); got != 5 {
		t.Errorf("median of Bin(10,0.5) = %d, want 5", got)
	}
	// Quantiles are monotone in q and bracket the mean.
	lo := binomQuantile(100, 0.3, 0.005)
	hi := binomQuantile(100, 0.3, 0.995)
	if lo > 30 || hi < 30 {
		t.Errorf("quantiles [%d, %d] must bracket the mean 30", lo, hi)
	}
	if lo >= hi {
		t.Errorf("lo %d must be < hi %d", lo, hi)
	}
}

func TestBoundHelpers(t *testing.T) {
	b := bound(3, 1) // reversed endpoints
	if b != (Bound{Lo: 1, Hi: 3}) {
		t.Errorf("bound must order endpoints: %+v", b)
	}
	if got := bound(-1, 2); got.Lo != 0 {
		t.Errorf("bound must clamp at zero: %+v", got)
	}
	if !b.Contains(2) || b.Contains(4) {
		t.Error("Contains wrong")
	}
	if b.Width() != 2 {
		t.Errorf("Width = %v", b.Width())
	}
	if got := b.RelHalfWidth(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("RelHalfWidth = %v, want 0.5", got)
	}
	if got := (Bound{}).RelHalfWidth(); got != 0 {
		t.Errorf("zero bound RelHalfWidth = %v", got)
	}
	// Check names the first violating field.
	var bs Bounds
	bs.Goodput = Bound{Lo: 1, Hi: 1}
	err := bs.Check(cluster.Result{Goodput: 0.5})
	if err == nil {
		t.Fatal("Check must reject an escaped value")
	}
}
