package scalefold

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/gpu"
	"repro/internal/scenario"
	"repro/internal/store"
)

// figures is the Resolver every figure test shares: its store plays the part
// the CLI's `scalefold all` store does, so a cell one figure resolved (the
// A100 reference step, the DAP-8 flagship) is a store hit for the next.
var figures = &Resolver{Store: store.NewMem[cluster.Result]()}

var update = flag.Bool("update", false, "rewrite the figures golden file")

// skipIfShort skips figure-scale simulations under -short: the race-checked
// CI job runs `go test -race -short ./...` for concurrency coverage (sweep
// engine, store, service) and would otherwise spend minutes re-deriving
// figure shapes the non-race job already checks.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("figure-scale simulation; skipped in -short mode")
	}
}

// Reproduction tolerance: the simulated substrate is not the authors'
// testbed, so we check shape — orderings, rough factors, crossovers — with
// generous bounds, and record exact values in EXPERIMENTS.md.
func within(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		return
	}
	if math.Abs(got-want)/want > relTol {
		t.Fatalf("%s: got %.3f, paper %.3f (tolerance %.0f%%)", name, got, want, 100*relTol)
	}
}

func TestFigure7Shape(t *testing.T) {
	skipIfShort(t)
	rows := Figure7(figures)
	byLabel := map[string]float64{}
	for _, r := range rows {
		byLabel[r.Label] = r.Seconds
		if r.Seconds <= 0 {
			t.Fatalf("%s: non-positive step time", r.Label)
		}
	}
	// Who wins: ScaleFold < FastFold < OpenFold on A100.
	if !(byLabel["ScaleFold (A100x256, DAP2)"] < byLabel["FastFold (A100x256, DAP2)"]) {
		t.Fatal("ScaleFold must beat FastFold at DAP-2 on A100")
	}
	if !(byLabel["FastFold (A100x256, DAP2)"] < byLabel["OpenFold (A100x128, NoDAP)"]) {
		t.Fatal("FastFold must beat OpenFold")
	}
	// DAP ladder monotone on H100.
	if !(byLabel["ScaleFold (H100x256, DAP2)"] < byLabel["ScaleFold (H100x128, NoDAP)"]) ||
		!(byLabel["ScaleFold (H100x512, DAP4)"] < byLabel["ScaleFold (H100x256, DAP2)"]) ||
		!(byLabel["ScaleFold (H100x1024, DAP8)"] <= byLabel["ScaleFold (H100x512, DAP4)"]) {
		t.Fatalf("H100 DAP ladder must be monotone: %+v", byLabel)
	}
	// H100 beats A100 at the same DAP.
	if !(byLabel["ScaleFold (H100x256, DAP2)"] < byLabel["ScaleFold (A100x256, DAP2)"]) {
		t.Fatal("H100 must beat A100")
	}
	// Rough magnitudes vs the paper.
	for _, r := range rows {
		within(t, r.Label, r.Seconds, r.Paper, 0.45)
	}
}

func TestFigure7DAPSpeedupsNearPaper(t *testing.T) {
	skipIfShort(t)
	rows := Figure7(figures)
	byLabel := map[string]float64{}
	for _, r := range rows {
		byLabel[r.Label] = r.Seconds
	}
	d1 := byLabel["ScaleFold (H100x128, NoDAP)"]
	// Paper: 1.6x / 2.4x / 2.77x for DAP-2/4/8 over DAP-1.
	within(t, "DAP-2 speedup", d1/byLabel["ScaleFold (H100x256, DAP2)"], 1.6, 0.35)
	within(t, "DAP-4 speedup", d1/byLabel["ScaleFold (H100x512, DAP4)"], 2.4, 0.35)
	within(t, "DAP-8 speedup", d1/byLabel["ScaleFold (H100x1024, DAP8)"], 2.77, 0.35)
}

func TestLadderMonotoneAndFinalSpeedup(t *testing.T) {
	skipIfShort(t)
	rungs := Ladder(figures)
	if len(rungs) != 12 {
		t.Fatalf("12 rungs expected, got %d", len(rungs))
	}
	final := rungs[len(rungs)-1]
	// Paper: ~6.2x step-time speedup on H100 vs the A100 reference ladder
	// end point of 10.39x (which includes the A100→H100 hop).
	within(t, "final ladder speedup", final.Speedup, 10.39, 0.25)
	// Each rung must not be slower than its predecessor by more than the
	// documented DAP-8-without-graph dip.
	for i := 1; i < len(rungs); i++ {
		if rungs[i].Label == "+DAP-8, no grad ckpt" {
			continue // the paper itself reports this config is graph-starved
		}
		if rungs[i].Speedup < rungs[i-1].Speedup*0.95 {
			t.Fatalf("rung %q regressed: %.2fx after %.2fx", rungs[i].Label, rungs[i].Speedup, rungs[i-1].Speedup)
		}
	}
}

func TestLadderKeyRungs(t *testing.T) {
	skipIfShort(t)
	rungs := Ladder(figures)
	get := func(label string) Rung {
		for _, r := range rungs {
			if r.Label == label {
				return r
			}
		}
		t.Fatalf("missing rung %q", label)
		return Rung{}
	}
	h100 := get("H100")
	within(t, "H100 hop", h100.Speedup, 1.66, 0.2)
	bf16 := get("+BF16")
	prev := get("+Non-blocking dataloader")
	within(t, "bf16 rung factor", bf16.Speedup/prev.Speedup, 1.24, 0.15)
	graph := get("+CUDA Graph")
	dap := get("+DAP-8, no grad ckpt")
	if graph.Speedup <= dap.Speedup {
		t.Fatal("CUDA graph must rescue the DAP-8 configuration")
	}
}

func TestFigure3SharesShape(t *testing.T) {
	// figure3Bars prices kernels on gpu.A100(), so the platform
	// figure3Config names must carry that arch.
	for _, d := range Figure3DAPs {
		c := figure3Config(d)
		if p, err := scenario.PlatformByName(c.Platform); err != nil || p.Arch != gpu.A100() {
			t.Fatalf("figure3Config(%d) platform %q resolves to %+v, %v; want gpu.A100()", d, c.Platform, p.Arch, err)
		}
	}
	skipIfShort(t)
	shares := map[int]map[string]float64{}
	for _, d := range []int{2, 4, 8} {
		m := map[string]float64{}
		var sum float64
		for _, b := range Figure3(figures, d) {
			m[b.Name] = b.Share
			sum += b.Share
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("DAP-%d shares sum to %v", d, sum)
		}
		shares[d] = m
	}
	// Imbalance share grows with DAP degree (paper: 6% -> 43% -> 54%).
	if !(shares[2]["Imbalance communication"] < shares[8]["Imbalance communication"]) {
		t.Fatalf("imbalance share must grow with DAP: %+v", shares)
	}
	// CPU overhead share shrinks (paper: 65% -> 30% -> 18%).
	if !(shares[8]["CPU overhead"] < shares[2]["CPU overhead"]) {
		t.Fatalf("CPU overhead share must shrink with DAP: %+v", shares)
	}
	// At DAP-8, imbalance is the dominant barrier.
	max := ""
	best := -1.0
	for k, v := range shares[8] {
		if v > best {
			best, max = v, k
		}
	}
	if max != "Imbalance communication" {
		t.Fatalf("at DAP-8 imbalance must dominate, got %q (%v)", max, shares[8])
	}
}

func TestBaselineDAPSaturates(t *testing.T) {
	skipIfShort(t)
	s := BaselineDAPSpeedups(figures)
	// Paper §3.1: 1.42x, 1.57x, and no gain at DAP-8 over DAP-4.
	if s[2] < 1.1 || s[2] > 2.1 {
		t.Fatalf("baseline DAP-2 speedup %v, paper 1.42x", s[2])
	}
	if s[4] < s[2]*0.9 {
		t.Fatalf("baseline DAP-4 (%v) should not regress vs DAP-2 (%v)", s[4], s[2])
	}
	// Saturation: DAP-8 gives little or nothing over DAP-4.
	if s[8] > s[4]*1.35 {
		t.Fatalf("baseline DAP-8 (%v) must saturate near DAP-4 (%v)", s[8], s[4])
	}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1()
	m := map[string]Table1Row{}
	var sum float64
	for _, r := range rows {
		m[r.Kind] = r
		sum += r.Share
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("shares sum to %v", sum)
	}
	// Memory-bounded dominates runtime (paper 65%).
	if m["Memory-bounded"].Share < 0.5 || m["Memory-bounded"].Share > 0.8 {
		t.Fatalf("memory-bounded share %v, paper 65%%", m["Memory-bounded"].Share)
	}
	// Math-bounded around a quarter (paper 24%).
	if m["Math-bounded"].Share < 0.1 || m["Math-bounded"].Share > 0.4 {
		t.Fatalf("math share %v, paper 24%%", m["Math-bounded"].Share)
	}
	// CPU overhead is the smallest-but-significant runtime slice (9.1%).
	if m["CPU Overhead"].Share < 0.02 || m["CPU Overhead"].Share > 0.2 {
		t.Fatalf("cpu share %v, paper 9.1%%", m["CPU Overhead"].Share)
	}
	// Call counts near the paper.
	within(t, "math calls", float64(m["Math-bounded"].Calls), 18147, 0.15)
	within(t, "mem calls", float64(m["Memory-bounded"].Calls), 97749, 0.15)
	within(t, "memop calls", float64(m["Memory-operation"].Calls), 34991, 0.15)
}

func TestFigure9Shape(t *testing.T) {
	skipIfShort(t)
	bars := Figure9(figures)
	if len(bars) != 3 {
		t.Fatalf("3 bars expected")
	}
	ref, noAsync, async := bars[0], bars[1], bars[2]
	// Eval share grows from Ref to optimized-without-async (22% -> 43%).
	if noAsync.Shares["eval"] <= ref.Shares["eval"] {
		t.Fatalf("eval share must grow when steps shrink: %v -> %v", ref.Shares["eval"], noAsync.Shares["eval"])
	}
	// Async eval nearly eliminates the eval share but pays comm.
	if async.Shares["eval"] > 0.1 {
		t.Fatalf("async eval share %v should be near zero", async.Shares["eval"])
	}
	if async.Shares["train_eval_comm"] <= 0 {
		t.Fatal("async eval must show train/eval communication")
	}
}

func TestFigure10Shape(t *testing.T) {
	skipIfShort(t)
	rows := Figure10(figures)
	if !(rows[2].Minutes < rows[1].Minutes && rows[1].Minutes < rows[0].Minutes) {
		t.Fatalf("TTT ordering wrong: %+v", rows)
	}
	// Paper: ~6x total speedup for the async config vs reference.
	speedup := rows[0].Minutes / rows[2].Minutes
	if speedup < 4 || speedup > 10 {
		t.Fatalf("TTT speedup %v, paper ~6x", speedup)
	}
	within(t, "reference TTT", rows[0].Minutes, 48, 0.25)
	within(t, "ScaleFold TTT", rows[2].Minutes, 8, 0.45)
}

func TestFigure11Shape(t *testing.T) {
	skipIfShort(t)
	sched, res := Figure11(figures)
	if !res.MetInitial {
		t.Fatal("0.8 must be crossed before step 5000")
	}
	if res.StepsTotal < 50000 || res.StepsTotal > 60000 {
		t.Fatalf("steps to 0.9 = %d, paper 50000-60000", res.StepsTotal)
	}
	if res.WallTime.Hours() >= 10 {
		t.Fatalf("pretraining %v, paper < 10 h", res.WallTime)
	}
	if sched.StepTimeGBS256 <= sched.StepTimeGBS128 {
		t.Fatal("GBS-256 phase (Triton MHA disabled) must be slower per step")
	}
}

func TestPrepTimeCurve(t *testing.T) {
	c := PrepTimeCurve(2000)
	if len(c) != 2000 {
		t.Fatal("length")
	}
	for i := 1; i < len(c); i++ {
		if c[i] < c[i-1] {
			t.Fatal("curve must be sorted")
		}
	}
	if c[len(c)-1]/c[0] < 100 {
		t.Fatal("curve must span >= 2 decades (Figure 4)")
	}
	// The Quantile out-of-range clamp must not move any in-range quantile:
	// the Figure 4 summary (dataset.Quantile over the curve) stays
	// byte-identical to direct indexing, the pre-fix in-range behavior.
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		want := fmt.Sprintf("%.6f", c[int(q*float64(len(c)-1))])
		got := fmt.Sprintf("%.6f", dataset.Quantile(c, q))
		if got != want {
			t.Fatalf("q=%g: dataset.Quantile prints %s, direct index prints %s", q, got, want)
		}
	}
}

func TestStepConfigDeterministic(t *testing.T) {
	a := figures.must(Figure7Config("H100", 128, 1)).MedianStep.Seconds()
	b := figures.must(Figure7Config("H100", 128, 1)).MedianStep.Seconds()
	if a != b {
		t.Fatal("config runs must be reproducible")
	}
}

// figure4Pin summarizes the Figure 4 curve for the golden file: the
// quantiles `scalefold fig4` prints, at full precision, and a SHA-256 over
// every value's float64 bits, so a one-bit move anywhere in the curve fails.
func figure4Pin(curve []float64) map[string]any {
	n := len(curve)
	quant := map[string]float64{}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		quant[strconv.FormatFloat(q, 'g', -1, 64)] = curve[int(q*float64(n-1))]
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range curve {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return map[string]any{"n": n, "quantiles": quant, "sha256": hex.EncodeToString(h.Sum(nil))}
}

// TestFiguresPinned pins every value the figure runners return to
// testdata/figures.golden, so a refactor of the simulator, the estimator or
// the census memo that moves one bit of a reproduced figure fails here
// instead of in a manual diff of CLI output. It reads through the shared
// figures Resolver, so after the shape tests above every cell is a store
// hit. Regenerate deliberately with
// `go test ./internal/scalefold -run FiguresPinned -update`.
func TestFiguresPinned(t *testing.T) {
	skipIfShort(t)
	sched, pretrain := Figure11(figures)
	got, err := json.MarshalIndent(map[string]any{
		"table1":           Table1(),
		"figure3":          Figure3All(figures),
		"figure4":          figure4Pin(PrepTimeCurve(20000)),
		"figure7":          Figure7(figures),
		"figure8":          Ladder(figures),
		"baseline_dap":     BaselineDAPSpeedups(figures),
		"figure9":          Figure9(figures),
		"figure10":         Figure10(figures),
		"figure11_sched":   sched,
		"figure11_outcome": pretrain,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("figure values drifted from %s:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}
