// Package dataset generates the synthetic stand-in for the OpenFold
// training dataset. The real dataset (PDB structures plus precomputed
// multiple sequence alignments) is not available offline, so we synthesize
// proteins whose 3D structure is a deterministic function of their sequence:
// the backbone is a 3D chain whose torsion angles are derived from local
// sequence windows. That makes structure prediction *learnable* — the model
// can in principle recover the sequence→angle map — which is all the
// training-side experiments need (DESIGN.md substitution table).
//
// The package also models the property of the real dataset that drives the
// paper's §3.2: batch preparation time varies across three orders of
// magnitude with sequence length and MSA size (Figure 4).
package dataset

import (
	"math"
	"math/rand"

	"repro/internal/keyrand"
)

// NumResidueTypes is the amino-acid alphabet size (20 + unknown).
const NumResidueTypes = 21

// Sample is one synthetic protein with its MSA and ground-truth structure.
type Sample struct {
	Index   int          // position in the epoch's sampler order
	Seq     []int        // residue types, length R
	MSA     [][]int      // S sequences × R residues (first row == Seq)
	Coords  [][3]float32 // ground-truth Cα coordinates, length R
	SeqLen  int          // original (pre-crop) sequence length
	MSASize int          // original MSA depth (drives prep time)
}

// Generator produces deterministic samples from a seed.
type Generator struct {
	seed int64

	// MinLen/MaxLen bound the pre-crop sequence length distribution.
	MinLen, MaxLen int
	// MSADepth is the number of MSA rows kept after sampling.
	MSADepth int
	// MutationRate is the per-position probability that an MSA row differs
	// from the target sequence.
	MutationRate float64
}

// NewGenerator returns a generator with OpenFold-like defaults scaled down.
func NewGenerator(seed int64) *Generator {
	return &Generator{seed: seed, MinLen: 64, MaxLen: 768, MSADepth: 8, MutationRate: 0.15}
}

// rngFor returns a fresh RNG positioned at the start of sample idx's draw
// sequence. Sample and Geometry both start here, which is what keeps their
// shared prefix bit-identical.
func (g *Generator) rngFor(idx int) *rand.Rand {
	return rand.New(rand.NewSource(g.seed*1_000_003 + int64(idx)))
}

// drawLen and drawMSASize are the geometry draws of the sample sequence,
// shared by Sample and the geometry fast path so the two can never
// desynchronize — there is exactly one definition of each draw.
func (g *Generator) drawLen(rng *rand.Rand) int {
	length := g.MinLen
	if g.MaxLen > g.MinLen {
		// Sequence lengths are right-skewed like real PDB chains.
		u := rng.Float64()
		length = g.MinLen + int(float64(g.MaxLen-g.MinLen)*u*u)
	}
	return length
}

func drawMSASize(rng *rand.Rand) int {
	return 16 + int(math.Abs(rng.NormFloat64())*2000)
}

// geometry replays the geometry prefix of the sample draw sequence on rng —
// the length draw, the length residue draws, the MSA-size draw — and returns
// the pre-crop geometry. The residue values are drawn and discarded: the
// MSA-size draw must observe the exact RNG state Sample's would, so the
// prefix is consumed, just never materialized.
func (g *Generator) geometry(rng *rand.Rand) (seqLen, msaSize int) {
	seqLen = g.drawLen(rng)
	for i := 0; i < seqLen; i++ {
		rng.Intn(NumResidueTypes - 1)
	}
	return seqLen, drawMSASize(rng)
}

// Geometry returns the pre-crop geometry of the idx-th sample — SeqLen and
// MSASize, the only fields batch-preparation cost depends on — without
// folding the protein or allocating the sequence, coordinates or MSA. It is
// guaranteed to equal Sample(idx).SeqLen / .MSASize: both replay the same
// RNG draw prefix (see geometry). The step simulator and the Figure 4 curve
// run on this path; Sample is for callers that train on the data.
func (g *Generator) Geometry(idx int) (seqLen, msaSize int) {
	return g.geometry(g.rngFor(idx))
}

// GeomSampler evaluates Geometry on one reused keyed RNG (package keyrand),
// for hot loops: the cluster simulator asks for tens of thousands of
// geometries per run. A keyed reseed is O(1) where a math/rand reseed
// refills the whole 607-word register, so what an index costs is its draws:
// the length draw, one draw per residue, the MSA-size draw. Not safe for
// concurrent use; give each goroutine its own.
type GeomSampler struct {
	g   *Generator
	rng *rand.Rand
}

// Sampler returns a reusable geometry sampler over g.
func (g *Generator) Sampler() *GeomSampler {
	return &GeomSampler{g: g, rng: rand.New(keyrand.New(0))}
}

// Geometry equals Generator.Geometry bit for bit: the keyed source, reseeded
// with the index's key, draws exactly what a fresh math/rand source would.
func (s *GeomSampler) Geometry(idx int) (seqLen, msaSize int) {
	s.rng.Seed(s.g.seed*1_000_003 + int64(idx))
	return s.g.geometry(s.rng)
}

// Sample generates the idx-th sample of the dataset, deterministically.
func (g *Generator) Sample(idx int) *Sample {
	rng := g.rngFor(idx)
	length := g.drawLen(rng)
	seq := make([]int, length)
	for i := range seq {
		seq[i] = rng.Intn(NumResidueTypes - 1)
	}
	msaSize := drawMSASize(rng)

	s := &Sample{
		Index:   idx,
		Seq:     seq,
		Coords:  FoldSequence(seq),
		SeqLen:  length,
		MSASize: msaSize,
	}
	s.MSA = make([][]int, g.MSADepth)
	s.MSA[0] = seq
	for r := 1; r < g.MSADepth; r++ {
		row := make([]int, length)
		copy(row, seq)
		for i := range row {
			if rng.Float64() < g.MutationRate {
				row[i] = rng.Intn(NumResidueTypes - 1)
			}
		}
		s.MSA[r] = row
	}
	return s
}

// FoldSequence maps a sequence to Cα coordinates deterministically: each
// residue advances the chain by a unit step whose direction turns according
// to torsion angles derived from a window of three residues. Identical
// sequences always fold identically, and similar sequences fold similarly,
// so the map is learnable from (sequence, structure) pairs.
func FoldSequence(seq []int) [][3]float32 {
	coords := make([][3]float32, len(seq))
	// Current direction as spherical angles.
	theta, phi := 0.6, 0.0
	x, y, z := 0.0, 0.0, 0.0
	for i := range seq {
		a := seq[i]
		b, c := a, a
		if i > 0 {
			b = seq[i-1]
		}
		if i+1 < len(seq) {
			c = seq[i+1]
		}
		// Torsion updates from the local window; constants chosen to produce
		// helix-like curls broken by turns, spanning a compact fold.
		theta += 0.35 * math.Sin(float64(a)*0.83+float64(b)*0.29)
		phi += 0.45 * math.Cos(float64(c)*0.57+float64(a)*0.11)
		const step = 3.8 // Å between consecutive Cα atoms
		x += step * math.Sin(theta) * math.Cos(phi)
		y += step * math.Sin(theta) * math.Sin(phi)
		z += step * math.Cos(theta)
		coords[i] = [3]float32{float32(x), float32(y), float32(z)}
	}
	return coords
}

// Crop returns a copy of s cropped (or padded by repetition) to exactly
// crop residues, starting at a deterministic offset. AlphaFold crops all
// training samples to a fixed length so local batches share one shape.
func (s *Sample) Crop(crop int, rng *rand.Rand) *Sample {
	out := &Sample{Index: s.Index, SeqLen: s.SeqLen, MSASize: s.MSASize}
	start := 0
	if len(s.Seq) > crop {
		start = rng.Intn(len(s.Seq) - crop)
	}
	idx := func(i int) int {
		j := start + i
		if j >= len(s.Seq) {
			j = len(s.Seq) - 1 // pad by repeating the terminal residue
		}
		return j
	}
	out.Seq = make([]int, crop)
	out.Coords = make([][3]float32, crop)
	for i := 0; i < crop; i++ {
		out.Seq[i] = s.Seq[idx(i)]
		out.Coords[i] = s.Coords[idx(i)]
	}
	out.MSA = make([][]int, len(s.MSA))
	for r := range s.MSA {
		row := make([]int, crop)
		for i := 0; i < crop; i++ {
			row[i] = s.MSA[r][idx(i)]
		}
		out.MSA[r] = row
	}
	return out
}
