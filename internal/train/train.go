// Package train implements the real training loop for the miniature
// AlphaFold model: distance-matrix loss, Adam + stochastic weight averaging
// + gradient clipping (via the fused kernels of package kernels), the
// lDDT-Cα evaluation metric the paper's convergence criterion uses
// (avg_lddt_ca ≥ 0.8 / 0.9), and optional bfloat16 parameter emulation.
package train

import (
	"math"
	"math/rand"

	ag "repro/internal/autograd"
	"repro/internal/dataset"
	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Config holds training hyper-parameters.
type Config struct {
	LR        float32
	ClipNorm  float32
	SWADecay  float32
	BF16      bool // round parameters through bfloat16 after each update
	DistScale float32
	Seed      int64
}

// DefaultConfig returns hyper-parameters that train the SmallConfig model
// stably.
func DefaultConfig() Config {
	return Config{LR: 2e-3, ClipNorm: 1.0, SWADecay: 0.99, DistScale: 0.1, Seed: 1}
}

// Trainer owns a model and its optimizer state.
type Trainer struct {
	Model *model.Model
	Cfg   Config

	step int
	m    [][]float32 // Adam first moments, aligned with Params.All()
	v    [][]float32 // Adam second moments
	swa  [][]float32 // stochastic weight averages

	// KernelStats accumulates launch/traffic accounting from the fused
	// optimizer, so experiments can report optimizer-side fusion effects.
	KernelStats kernels.Stats
}

// New creates a trainer for mdl.
func New(mdl *model.Model, cfg Config) *Trainer {
	ps := mdl.Params.All()
	t := &Trainer{Model: mdl, Cfg: cfg}
	t.m = make([][]float32, len(ps))
	t.v = make([][]float32, len(ps))
	t.swa = make([][]float32, len(ps))
	for i, p := range ps {
		n := p.X.Len()
		t.m[i] = make([]float32, n)
		t.v[i] = make([]float32, n)
		t.swa[i] = append([]float32(nil), p.X.Data...)
	}
	return t
}

// Step returns the trainer's current step count.
func (t *Trainer) Step() int { return t.step }

// Loss computes the training loss for a sample on the given tape-bound
// forward output: MSE between scaled predicted and true distance matrices.
func (t *Trainer) Loss(out *model.Output, s *dataset.Sample) *ag.Value {
	pred := ag.Scale(ag.PairwiseDist(out.Coords), t.Cfg.DistScale)
	target := dataset.TrueDistances(s).Scale(t.Cfg.DistScale)
	return ag.MSE(pred, target)
}

// TrainStep runs one optimizer step over a batch of cropped samples:
// per-sample forward/backward with gradient accumulation, then the fused
// clip+Adam+SWA update. It returns the mean loss.
func (t *Trainer) TrainStep(batch []*dataset.Sample) float64 {
	if len(batch) == 0 {
		panic("train: empty batch")
	}
	tape := ag.NewTape()
	t.Model.Params.Rebind(tape)
	// The featurization RNG is a pure function of the seed and the step
	// counter, so every step's crops replay identically.
	rng := rand.New(rand.NewSource(t.Cfg.Seed*31 + int64(t.step)))
	var total float64
	for _, s := range batch {
		f := dataset.Featurize(s, t.Model.Cfg, rng)
		out := t.Model.Forward(f)
		loss := ag.Scale(t.Loss(out, s), 1/float32(len(batch)))
		tape.Backward(loss)
		total += float64(loss.X.Data[0]) * float64(len(batch))
	}
	t.applyUpdate()
	return total / float64(len(batch))
}

// applyUpdate runs the fused gradient-clip + Adam + SWA kernel over all
// parameters.
func (t *Trainer) applyUpdate() {
	t.step++
	ps := t.Model.Params.All()
	kp := make([]kernels.ParamTensor, 0, len(ps))
	for i, p := range ps {
		g := p.Grad
		if g == nil {
			continue
		}
		kp = append(kp, kernels.ParamTensor{
			P: p.X.Data, G: g.Data, M: t.m[i], V: t.v[i], SWA: t.swa[i],
		})
	}
	cfg := kernels.AdamConfig{
		LR: t.Cfg.LR, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		SWADecay: t.Cfg.SWADecay, Step: t.step,
	}
	kernels.AdamSWAFused(kp, cfg, t.Cfg.ClipNorm, nil, &t.KernelStats)
	if t.Cfg.BF16 {
		for _, p := range ps {
			tensor.QuantizeBF16(p.X)
		}
	}
}

// Predict runs inference (no gradient bookkeeping needed beyond the tape)
// and returns predicted coordinates.
func (t *Trainer) Predict(s *dataset.Sample) [][3]float32 {
	tape := ag.NewTape()
	t.Model.Params.Rebind(tape)
	rng := rand.New(rand.NewSource(t.Cfg.Seed + 777))
	f := dataset.Featurize(s, t.Model.Cfg, rng)
	out := t.Model.Forward(f)
	coords := make([][3]float32, t.Model.Cfg.Crop)
	for i := range coords {
		coords[i] = [3]float32{out.Coords.X.At(i, 0), out.Coords.X.At(i, 1), out.Coords.X.At(i, 2)}
	}
	return coords
}

// Evaluate returns the mean lDDT-Cα over the evaluation samples — the
// paper's avg_lddt_ca metric.
func (t *Trainer) Evaluate(eval []*dataset.Sample) float64 {
	if len(eval) == 0 {
		return 0
	}
	var sum float64
	for _, s := range eval {
		pred := t.Predict(s)
		sum += LDDTCa(pred, s.Coords)
	}
	return sum / float64(len(eval))
}

// LDDTCa computes the local distance difference test on Cα atoms: for every
// residue pair (i,j), i≠j, whose true distance is below the 15 Å inclusion
// radius, score the fraction of tolerance thresholds {0.5, 1, 2, 4} Å the
// predicted distance error stays within, and average.
func LDDTCa(pred, truth [][3]float32) float64 {
	if len(pred) != len(truth) {
		panic("train: LDDTCa length mismatch")
	}
	const cutoff = 15.0
	thresholds := [4]float64{0.5, 1, 2, 4}
	var score float64
	var count int
	n := len(pred)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dt := dist3(truth[i], truth[j])
			if dt >= cutoff {
				continue
			}
			dp := dist3(pred[i], pred[j])
			diff := math.Abs(dt - dp)
			var hits int
			for _, th := range thresholds {
				if diff < th {
					hits++
				}
			}
			score += float64(hits) / 4
			count++
		}
	}
	if count == 0 {
		return 1 // no local contacts to violate
	}
	return score / float64(count)
}

func dist3(a, b [3]float32) float64 {
	dx := float64(a[0] - b[0])
	dy := float64(a[1] - b[1])
	dz := float64(a[2] - b[2])
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}
