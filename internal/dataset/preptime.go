package dataset

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/keyrand"
)

// PrepTimeModel reproduces the Figure 4 distribution of batch preparation
// times: across ~20k batches of the OpenFold dataset, preparation takes
// between ~0.1 s and ~100 s — three orders of magnitude — depending on the
// sample's initial sequence length and MSA size, with roughly the slowest
// 10% of batches responsible for pipeline blocking (§3.1).
//
// The model is a deterministic function of the sample's pre-crop geometry
// plus a log-normal jitter: prep time grows linearly in sequence length and
// MSA size (alignment parsing and cropping cost), matching the paper's
// description that "depending on the data sample's initial sequence length
// and multi-sequence alignment size, the batch preparation time varies
// significantly".
type PrepTimeModel struct {
	// Base is the minimum preparation cost in seconds.
	Base float64
	// PerResidue and PerMSARow are the marginal costs in seconds.
	PerResidue float64
	PerMSARow  float64
	// JitterSigma is the σ of the multiplicative log-normal jitter.
	JitterSigma float64
	// HeavyTailProb is the probability a batch lands in the slow regime
	// (huge alignments); HeavyTailScale multiplies its cost.
	HeavyTailProb  float64
	HeavyTailScale float64
}

// DefaultPrepTimeModel is calibrated so that over the OpenFold-like sample
// distribution the sorted prep-time curve spans ~0.1–100 s with a median
// under 1 s and ≳10% of batches above 3 s, matching Figure 4's log-scale
// shape.
func DefaultPrepTimeModel() PrepTimeModel {
	return PrepTimeModel{
		Base:           0.08,
		PerResidue:     0.0012,
		PerMSARow:      0.00045,
		JitterSigma:    0.45,
		HeavyTailProb:  0.10,
		HeavyTailScale: 6,
	}
}

// Duration returns the preparation time for a sample, deterministically
// derived from the sample index and the model's seed. It reads nothing but
// the sample's index and pre-crop geometry; DurationAt is the same function
// without the materialized sample.
func (m PrepTimeModel) Duration(s *Sample, seed int64) time.Duration {
	return m.DurationAt(s.Index, s.SeqLen, s.MSASize, seed)
}

// DurationAt returns the preparation time of sample idx given its pre-crop
// geometry (Generator.Geometry's output), bit-identical to Duration on the
// materialized sample. The simulator hot path pairs it with Geometry so no
// protein is ever folded just to be timed.
func (m PrepTimeModel) DurationAt(idx, seqLen, msaSize int, seed int64) time.Duration {
	return m.durationAt(rand.New(rand.NewSource(seed*7_919+int64(idx))), seqLen, msaSize)
}

func (m PrepTimeModel) durationAt(rng *rand.Rand, seqLen, msaSize int) time.Duration {
	t := m.Base + m.PerResidue*float64(seqLen) + m.PerMSARow*float64(msaSize)
	t *= math.Exp(rng.NormFloat64() * m.JitterSigma)
	if rng.Float64() < m.HeavyTailProb {
		t *= m.HeavyTailScale * (0.8 + 0.7*rng.Float64())
		// A super-tail within the slow regime: gigantic alignments
		// (Figure 4's ~100 s extreme, roughly the slowest 0.5%).
		if rng.Float64() < 0.05 {
			t *= 3
		}
	}
	if t < 0.05 {
		t = 0.05
	}
	if t > 110 {
		t = 110
	}
	return time.Duration(t * float64(time.Second))
}

// PrepTimer evaluates a PrepTimeModel on one reused keyed RNG (package
// keyrand). An index draws at most four values, so a math/rand reseed, which
// refills the whole 607-word register, would be nearly all of its cost; a
// keyed reseed is O(1) and derives only the words those draws read. Not
// safe for concurrent use; give each goroutine its own.
type PrepTimer struct {
	m   PrepTimeModel
	rng *rand.Rand
}

// Timer returns a reusable evaluator over m.
func (m PrepTimeModel) Timer() *PrepTimer {
	return &PrepTimer{m: m, rng: rand.New(keyrand.New(0))}
}

// DurationAt matches PrepTimeModel.DurationAt bit for bit: the keyed source,
// reseeded with the index's key, draws exactly what a fresh math/rand source
// would.
func (t *PrepTimer) DurationAt(idx, seqLen, msaSize int, seed int64) time.Duration {
	t.rng.Seed(seed*7_919 + int64(idx))
	return t.m.durationAt(t.rng, seqLen, msaSize)
}

// SortedPrepTimes returns the preparation times of the first n samples in
// ascending order, in seconds — the Figure 4 curve. It runs on the
// geometry-only fast path: no sample is materialized, no protein folded.
func SortedPrepTimes(gen *Generator, m PrepTimeModel, n int, seed int64) []float64 {
	out := make([]float64, n)
	gs := gen.Sampler()
	pt := m.Timer()
	for i := 0; i < n; i++ {
		seqLen, msaSize := gs.Geometry(i)
		out[i] = pt.DurationAt(i, seqLen, msaSize, seed).Seconds()
	}
	sort.Float64s(out)
	return out
}

// Quantile returns the q-quantile of an ascending-sorted slice. q is
// clamped to [0,1] (NaN included), so out-of-range requests return the
// minimum or maximum instead of indexing out of bounds.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if !(q > 0) { // catches q <= 0 and NaN
		q = 0
	} else if q > 1 {
		q = 1
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
