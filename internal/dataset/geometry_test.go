package dataset

import (
	"math"
	"testing"
)

// TestGeometryMatchesSample is the contract of the fast path: for every
// index, Geometry must report exactly the SeqLen/MSASize a materialized
// Sample carries — it replays the same RNG draw prefix, so any divergence
// means the prefix drifted and the simulator is costing a different dataset
// than the trainer sees.
func TestGeometryMatchesSample(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 500 // keep the equivalence guard alive in the -race -short job
	}
	for _, seed := range []int64{1, 7, 102} {
		g := NewGenerator(seed)
		gs := g.Sampler()
		for idx := 0; idx < n; idx++ {
			s := g.Sample(idx)
			seqLen, msaSize := g.Geometry(idx)
			if seqLen != s.SeqLen || msaSize != s.MSASize {
				t.Fatalf("seed %d idx %d: Geometry (%d,%d) != Sample (%d,%d)",
					seed, idx, seqLen, msaSize, s.SeqLen, s.MSASize)
			}
			rl, rm := gs.Geometry(idx)
			if rl != seqLen || rm != msaSize {
				t.Fatalf("seed %d idx %d: GeomSampler (%d,%d) != Geometry (%d,%d)",
					seed, idx, rl, rm, seqLen, msaSize)
			}
		}
	}
}

// TestDurationAtMatchesDuration pins the prep-time side of the fast path:
// DurationAt on the geometry must be bit-identical to Duration on the
// materialized sample. It is also the keyed-vs-math/rand differential test
// of the timer: PrepTimeModel.DurationAt draws from a fresh math/rand
// source, PrepTimer from one reused keyrand source reseeded per index.
func TestDurationAtMatchesDuration(t *testing.T) {
	g := NewGenerator(11)
	m := DefaultPrepTimeModel()
	pt := m.Timer()
	for _, seed := range []int64{1, 7, 9, -3, math.MaxInt64/7_919 + 1} {
		for idx := 0; idx < 500; idx++ {
			s := g.Sample(idx)
			want := m.Duration(s, seed)
			if got := m.DurationAt(idx, s.SeqLen, s.MSASize, seed); got != want {
				t.Fatalf("seed %d idx %d: DurationAt %v != Duration %v", seed, idx, got, want)
			}
			if got := pt.DurationAt(idx, s.SeqLen, s.MSASize, seed); got != want {
				t.Fatalf("seed %d idx %d: PrepTimer %v != Duration %v", seed, idx, got, want)
			}
		}
	}
}

// TestGeomSamplerReseedExact is the keyed-vs-math/rand differential test of
// the geometry sampler: one reused keyrand source, visiting indices out of
// order and revisiting some, must agree with a fresh math/rand source per
// call (Generator.Geometry) — a keyed reseed fully resets the stream, and
// no register word survives from the previous index. The generator seeds
// include a negative one and one whose keys wrap int64. Under seed 0 the
// key is the index, and the last four indices are ones whose residue draws
// Int31n rejects, so the skip meets real rejections.
func TestGeomSamplerReseedExact(t *testing.T) {
	order := []int{5, 0, 99, 5, 17, 0}
	for i := 0; i < 200; i++ {
		order = append(order, (i*7919)%1009)
	}
	// Residues 146, 609 (past the register's length), 205 and 45.
	order = append(order, 475513, 481820, 1043570, 2126476)
	for _, seed := range []int64{0, 42, -9, math.MaxInt64/1_000_003 + 1} {
		g := NewGenerator(seed)
		gs := g.Sampler()
		for _, idx := range order {
			al, am := gs.Geometry(idx)
			bl, bm := g.Geometry(idx)
			if al != bl || am != bm {
				t.Fatalf("seed %d idx %d: keyed RNG (%d,%d) != math/rand (%d,%d)", seed, idx, al, am, bl, bm)
			}
		}
	}
}

// TestGeomSamplerAllocFree pins the samplers' hot path at zero allocations
// per index: a geometry and its prep time draw on state the two samplers
// own, the skip's pending records included.
func TestGeomSamplerAllocFree(t *testing.T) {
	gs := NewGenerator(3).Sampler()
	pt := DefaultPrepTimeModel().Timer()
	idx := 0
	allocs := testing.AllocsPerRun(500, func() {
		idx++
		seqLen, msaSize := gs.Geometry(idx)
		pt.DurationAt(idx, seqLen, msaSize, 7)
	})
	if allocs != 0 {
		t.Fatalf("GeomSampler.Geometry + PrepTimer.DurationAt: %v allocs per index, want 0", allocs)
	}
}

// BenchmarkGeometryVsSample documents why the fast path exists: the
// geometry-only draw skips the fold and the MSA rows.
func BenchmarkGeometryVsSample(b *testing.B) {
	g := NewGenerator(1)
	b.Run("Sample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.Sample(i % 4096)
		}
	})
	b.Run("Geometry", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = g.Geometry(i % 4096)
		}
	})
	b.Run("GeomSampler", func(b *testing.B) {
		gs := g.Sampler()
		pt := DefaultPrepTimeModel().Timer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			idx := i % 4096
			seqLen, msaSize := gs.Geometry(idx)
			_ = pt.DurationAt(idx, seqLen, msaSize, 7)
		}
	})
}
