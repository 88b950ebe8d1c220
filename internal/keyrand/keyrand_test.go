package keyrand

import (
	"math"
	"math/rand"
	"testing"
)

// draw makes one draw of kind op on r, returned as bits so float draws
// compare exactly. The kinds cover every Rand method the module's keyed
// streams use, plus the raw 63- and 64-bit outputs.
func draw(r *rand.Rand, op byte) uint64 {
	switch op % 7 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return r.Uint64()
	case 2:
		return uint64(r.Intn(20))
	case 3:
		return uint64(r.Int31n(1_000_003))
	case 4:
		return math.Float64bits(r.Float64())
	case 5:
		return math.Float64bits(r.NormFloat64())
	default:
		return math.Float64bits(r.ExpFloat64())
	}
}

// drawLen runs each seeding well past the 607-word register's wrap, so
// words rewritten by earlier draws are read back too.
const drawLen = 2 * rngLen

// compare draws n values of the kinds ops cycles through from both
// generators and fails on the first that differs.
func compare(t *testing.T, keyed, ref *rand.Rand, seed int64, ops []byte, n int) {
	t.Helper()
	if len(ops) == 0 {
		ops = []byte{0, 1, 2, 3, 4, 5, 6}
	}
	for i := 0; i < n; i++ {
		op := ops[i%len(ops)]
		if got, want := draw(keyed, op), draw(ref, op); got != want {
			t.Fatalf("seed %d: draw %d (kind %d): keyed %#x != math/rand %#x", seed, i, op%7, got, want)
		}
	}
}

// fuzzKeyed is the one keyed source every FuzzKeyedSource input reseeds,
// so a word left over from an earlier input's seeding would show. Fuzz
// inputs run one at a time within a process.
var fuzzKeyed = rand.New(New(0))

// FuzzKeyedSource is the source's contract: reseeded with any seed, the
// reused keyed source draws exactly what a fresh rand.NewSource does, over
// mixed draw kinds, past the register's wrap and across a reseed made
// mid-stream.
func FuzzKeyedSource(f *testing.F) {
	const p = 1<<31 - 1
	seeds := []int64{0, 1, -1, p, -p, 2 * p, zeroSeed, math.MinInt64, math.MaxInt64}
	for i, seed := range seeds {
		f.Add(seed, seeds[(i+1)%len(seeds)], uint16(100*i), []byte{byte(i), 5, 2, 6, 4})
	}
	f.Fuzz(func(t *testing.T, seed, reseed int64, cut uint16, ops []byte) {
		fuzzKeyed.Seed(seed)
		compare(t, fuzzKeyed, rand.New(rand.NewSource(seed)), seed, ops, int(cut)%drawLen)
		fuzzKeyed.Seed(reseed)
		compare(t, fuzzKeyed, rand.New(rand.NewSource(reseed)), reseed, ops, drawLen)
	})
}

// TestGenerationWrap forces the generation counter through its wrap. Every
// word is stamped with generation 1 under one seed; the wrap lands on
// generation 1 again, so a source that kept those stamps would serve the
// old seed's words.
func TestGenerationWrap(t *testing.T) {
	src := New(3).(*source)
	keyed := rand.New(src)
	compare(t, keyed, rand.New(rand.NewSource(3)), 3, nil, drawLen)
	if src.gen != 1 {
		t.Fatalf("first seeding has generation %d, want 1", src.gen)
	}
	src.gen = math.MaxUint32
	for _, seed := range []int64{5, 7} { // generations 1 (the wrap), 2
		keyed.Seed(seed)
		compare(t, keyed, rand.New(rand.NewSource(seed)), seed, nil, drawLen)
	}
	if src.gen != 2 {
		t.Fatalf("generation after the wrap is %d, want 2", src.gen)
	}
}

// BenchmarkKeyedReseed times what a keyed sampler pays per sample index:
// a reseed plus four draws, on this source and on math/rand's own.
func BenchmarkKeyedReseed(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{
		{"keyed", New(0)},
		{"math-rand", rand.NewSource(0)},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := rand.New(c.src)
			var sink float64
			seed := int64(0)
			for b.Loop() {
				seed++
				r.Seed(seed)
				sink += r.NormFloat64() + r.Float64() + r.Float64() + r.Float64()
			}
			if sink == 0 {
				b.Fatal("no draws")
			}
		})
	}
}
