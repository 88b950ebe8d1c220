package keyrand

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// draw makes one draw of kind op on r, returned as bits so float draws
// compare exactly. The kinds cover every Rand method the module's keyed
// streams use, plus the raw 63- and 64-bit outputs.
func draw(r *rand.Rand, op byte) uint64 {
	switch op % kinds {
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

// kinds counts the op kinds compare runs: draw's seven, and a skip.
const kinds = 8

// skipNs are the bounds a skip uses. n = 20 is the dataset's residue draw.
// 3, 7 and 2^31−2 reject rarely, like 20, with the limit's top field at
// 4095. 2^30+1 rejects about half its draws and puts that field at 2048,
// so the carry allowance decides many draws. 16 and 1 are powers of two,
// which never reject.
var skipNs = []int32{20, 3, 7, 1<<30 + 1, 1<<31 - 2, 16, 1}

// drawLen runs each seeding well past the 607-word register's wrap, so
// words rewritten by earlier draws are read back too.
const drawLen = 2 * rngLen

// compare runs n ops, cycling through ops, on the keyed source and on ref
// and fails on the first draw that differs. An op of kind 7 is a skip:
// SkipInt31n with bound skipNs[op/8 mod 7] on the keyed source and as many
// Int31n calls on ref, the count being 4 times the next op byte; one Int63
// from each follows, so a skip's effect shows even as the last op.
func compare(t *testing.T, src rand.Source64, ref *rand.Rand, what string, ops []byte, n int) {
	t.Helper()
	if len(ops) == 0 {
		ops = []byte{0, 1, 2, 3, 4, 5, 6}
	}
	keyed := rand.New(src)
	for i := 0; i < n; i++ {
		op := ops[i%len(ops)]
		if op%kinds == 7 {
			bound, count := skipNs[int(op/kinds)%len(skipNs)], 4*int(ops[(i+1)%len(ops)])
			SkipInt31n(src, bound, count)
			for range count {
				ref.Int31n(bound)
			}
			op = 0
		}
		if got, want := draw(keyed, op), draw(ref, op); got != want {
			t.Fatalf("%s: op %d (kind %d): keyed %#x != math/rand %#x", what, i, op%kinds, got, want)
		}
	}
}

// fuzzKeyed is the one keyed source every FuzzKeyedSource input reseeds,
// so a word or pending record left over from an earlier input's seeding
// would show. Fuzz inputs run one at a time within a process.
var fuzzKeyed = New(0)

// FuzzKeyedSource is the source's contract: reseeded with any seed, the
// reused keyed source draws exactly what a fresh rand.NewSource does, over
// mixed draw kinds and skips, past the register's wrap and across a reseed
// made mid-stream.
func FuzzKeyedSource(f *testing.F) {
	const p = 1<<31 - 1
	seeds := []int64{0, 1, -1, p, -p, 2 * p, zeroSeed, math.MinInt64, math.MaxInt64}
	for i, seed := range seeds {
		f.Add(seed, seeds[(i+1)%len(seeds)], uint16(100*i), []byte{byte(i), 5, 2, 6, 4})
	}
	// One skip per bound, of 40 to 760 calls.
	for i := range skipNs {
		f.Add(int64(i), int64(-i), uint16(3), []byte{byte(i*kinds + 7), byte(10 + 30*i), 1, 4})
	}
	f.Fuzz(func(t *testing.T, seed, reseed int64, cut uint16, ops []byte) {
		fuzzKeyed.Seed(seed)
		compare(t, fuzzKeyed, rand.New(rand.NewSource(seed)), fmt.Sprint("seed ", seed), ops, int(cut)%drawLen)
		fuzzKeyed.Seed(reseed)
		compare(t, fuzzKeyed, rand.New(rand.NewSource(reseed)), fmt.Sprint("reseed ", reseed), ops, drawLen)
	})
}

// TestSkipInt31n is SkipInt31n's table: every bound in skipNs; counts
// around the recurrence's lags (273 and 607), around 334, where the first
// skipped output is read back, and past the filter's 880-draw reach; a
// skip made after 0, 1 and 700 ordinary draws, the last reaching the
// draw-by-draw path. Each case has its own seed, negative ones included,
// and checks 1,214 mixed draws after the skip against a fresh math/rand
// source. The same skips on a math/rand source check the draw-by-draw path
// on sources New did not make.
func TestSkipInt31n(t *testing.T) {
	counts := []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 608, 900, 2000}
	src := New(0)
	seed := int64(-400)
	for _, n := range skipNs {
		for _, count := range counts {
			for _, before := range []int{0, 1, 700} {
				for range 3 {
					seed++
					what := fmt.Sprintf("seed %d, %d draws, then %d×Int31n(%d)", seed, before, count, n)
					for _, s := range []rand.Source64{src, rand.NewSource(seed).(rand.Source64)} {
						s.Seed(seed)
						ref := rand.New(rand.NewSource(seed))
						compare(t, s, ref, what, nil, before)
						SkipInt31n(s, n, count)
						for range count {
							ref.Int31n(n)
						}
						compare(t, s, ref, what, nil, drawLen)
					}
				}
			}
		}
	}
}

// TestGenerationWrap forces the generation counter through its wrap. Every
// word is stamped with generation 1 under one seed, as a value or as a
// skip's pending record; the wrap lands on generation 1 again, so a source
// that kept those stamps would serve the old seed's words and records.
func TestGenerationWrap(t *testing.T) {
	const n = 1<<30 + 1
	src := New(3).(*source)
	run := func(seed int64) {
		ref := rand.New(rand.NewSource(seed))
		SkipInt31n(src, n, 600)
		for range 600 {
			ref.Int31n(n)
		}
		compare(t, src, ref, fmt.Sprint("seed ", seed), nil, drawLen)
	}
	run(3)
	if src.gen != 1 {
		t.Fatalf("first seeding has generation %d, want 1", src.gen)
	}
	src.gen = pending - 1
	for _, seed := range []int64{5, 7} { // generations 1 (the wrap), 2
		src.Seed(seed)
		run(seed)
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
