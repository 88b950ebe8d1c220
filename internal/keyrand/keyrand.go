// Package keyrand provides a math/rand source whose Seed costs O(1) and
// whose draws are bit-identical to rand.NewSource's, for keyed streams that
// reseed often and draw little per seed.
//
// math/rand's source seeds its 607-word lagged-Fibonacci register by
// stepping a Lehmer generator, x ← 48271·x mod (2^31−1), about 1,840 times
// from the seed: word i packs the generator's values after steps 21+3i,
// 22+3i and 23+3i and XORs in a fixed table (rngCooked). The value after
// step k is seed·48271^k mod (2^31−1), so any word can be computed directly
// from a table of powers. This source does that lazily: Seed records the
// seed and starts a new generation, and a word is derived the first time a
// draw reads it under that generation. A reseed followed by a few draws
// touches a few words instead of the whole register.
package keyrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lehmerP  = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA  = 48271     // the Lehmer multiplier
	zeroSeed = 89482311  // what math/rand seeds with in place of 0
)

// pow[i] is lehmerA^(21+3i) mod lehmerP: the multiplier that takes a
// normalized seed to the first of register word i's three Lehmer values.
var pow = powers()

func powers() (t [rngLen]uint64) {
	x := uint64(1)
	for k := 1; k <= 21+3*(rngLen-1); k++ {
		x = mulmod(x, lehmerA)
		if k >= 21 && (k-21)%3 == 0 {
			t[(k-21)/3] = x
		}
	}
	return t
}

// mulmod returns x·y mod lehmerP for x, y < lehmerP. Since 2^31 ≡ 1 mod
// the Mersenne prime, the product's high bits fold onto its low bits; the
// sum is below 2·lehmerP, so one subtraction finishes the reduction.
func mulmod(x, y uint64) uint64 {
	v := x * y
	v = v&lehmerP + v>>31
	if v >= lehmerP {
		v -= lehmerP
	}
	return v
}

// source is math/rand's rngSource with a lazily derived register: vec[i]
// holds word i of the current seeding only when stamp[i] == gen.
type source struct {
	tap, feed int
	seed      uint64 // normalized seed, in [1, lehmerP)
	gen       uint32
	stamp     [rngLen]uint32
	vec       [rngLen]int64
}

// New returns a source seeded with seed. After any sequence of Seed calls
// its draws equal those of rand.NewSource seeded with the last seed. Not
// safe for concurrent use.
func New(seed int64) rand.Source64 {
	s := &source{}
	s.Seed(seed)
	return s
}

// Seed normalizes seed exactly as math/rand does and invalidates every
// register word by starting a new generation. When the generation counter
// wraps, the stamps are cleared so no stale word can match it again.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= lehmerP
	if seed < 0 {
		seed += lehmerP
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.gen++
	if s.gen == 0 {
		s.stamp = [rngLen]uint32{}
		s.gen = 1
	}
}

// derive computes register word i of the current seeding, packing three
// consecutive Lehmer values as math/rand's Seed does (the first shift
// wraps as int64 does).
func (s *source) derive(i int) {
	x := mulmod(s.seed, pow[i])
	u := int64(x) << 40
	x = mulmod(x, lehmerA)
	u ^= int64(x) << 20
	x = mulmod(x, lehmerA)
	u ^= int64(x)
	s.vec[i] = u ^ rngCooked[i]
	s.stamp[i] = s.gen
}

// Uint64 is math/rand's additive lagged-Fibonacci step, deriving the two
// words it reads on their first read.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.stamp[s.feed] != s.gen {
		s.derive(s.feed)
	}
	if s.stamp[s.tap] != s.gen {
		s.derive(s.tap)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
