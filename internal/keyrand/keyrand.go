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
//
// SkipInt31n advances a source past Int31n calls whose values the caller
// throws away. A call consumes one draw unless Int31n rejects it, and a
// rejection needs the draw's bits 51–62 at or near their maximum. Within
// 880 draws of the seed an output is a sum of at most six seeded words, and
// a seeded word's bits 51–62 depend on its first Lehmer value alone. So the
// skip tracks each output's 12-bit field sum and term count, at one modular
// multiplication per seeded word it reads, and computes an output in full
// only when that sum plus the carry from the low bits could reach the
// rejection limit. The outputs it skips stay pending in the register; a
// later draw that reads one computes it from the recurrence.
package keyrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lehmerP  = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA  = 48271     // the Lehmer multiplier
	zeroSeed = 89482311  // what math/rand seeds with in place of 0

	// pending marks a stamp whose word holds a skipped output's record
	// rather than its value (see skip); generations stay below it.
	pending = 1 << 31
	// fastEnd is the last draw the skip's filter handles. Up to draw
	// rngLen+rngTap an output is a sum of at most six seeded words.
	fastEnd = rngLen + rngTap
	// Bits 51–62 of an output are the top 12 of the 31 that Int31n reads.
	fieldShift = 51
	fieldMask  = 1<<12 - 1
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

// source is math/rand's rngSource with a lazily derived register. Word i
// holds its value under the current seeding when stamp[i] == gen, a skipped
// output's record when stamp[i] == gen|pending, and otherwise is still
// seeded word i, derived on its first read. A record packs the output's
// draw number from bit 16 up, its term count in bits 12–15 and its field
// sum in bits 0–11.
type source struct {
	tap, feed int
	laps      int    // wraps of tap: laps·rngLen − tap draws since Seed
	seed      uint64 // normalized seed, in [1, lehmerP)
	gen       uint32 // in [1, pending)
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
// register word and pending record by starting a new generation. When the
// generation counter reaches the pending bit, the stamps are cleared so no
// stale word can match a generation again.
func (s *source) Seed(seed int64) {
	s.tap, s.feed, s.laps = 0, rngLen-rngTap, 0
	seed %= lehmerP
	if seed < 0 {
		seed += lehmerP
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.gen++
	if s.gen == pending {
		s.stamp = [rngLen]uint32{}
		s.gen = 1
	}
}

// word returns register word i of the current seeding, packing three
// consecutive Lehmer values as math/rand's Seed does (the first shift
// wraps as int64 does).
func (s *source) word(i int) int64 {
	x := mulmod(s.seed, pow[i])
	u := int64(x) << 40
	x = mulmod(x, lehmerA)
	u ^= int64(x) << 20
	x = mulmod(x, lehmerA)
	u ^= int64(x)
	return u ^ rngCooked[i]
}

// seededField returns bits 51–62 of word i as seeded with seed. The shift
// by 40 puts bits 11–22 of the first Lehmer value there; the other two
// values stay below bit 51.
func seededField(seed uint64, i int) uint32 {
	return uint32(mulmod(seed, pow[i])>>11^uint64(rngCooked[i])>>fieldShift) & fieldMask
}

// at returns output j of the current seeding, expanding math/rand's
// recurrence out(j) = out(j−607) + out(j−273) down to seeded words: for
// j ≤ 0, "output j" is seeded word (334−j) mod 607, which the recurrence
// reads in its place. Up to fastEnd it reads at most six words.
func (s *source) at(j int) int64 {
	if j <= 0 {
		return s.word((rngLen - rngTap - j) % rngLen)
	}
	return s.at(j-rngLen) + s.at(j-rngTap)
}

// load makes word i hold its value: a pending word is computed from the
// draw number in its record, any other is the seeded word.
func (s *source) load(i int) {
	if s.stamp[i] == s.gen|pending {
		s.vec[i] = s.at(int(s.vec[i] >> 16))
	} else {
		s.vec[i] = s.word(i)
	}
	s.stamp[i] = s.gen
}

// step is math/rand's additive lagged-Fibonacci step on the words at tap
// and feed, loading each word it reads that does not hold its value yet.
func (s *source) step() uint64 {
	if s.stamp[s.feed] != s.gen {
		s.load(s.feed)
	}
	if s.stamp[s.tap] != s.gen {
		s.load(s.tap)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Uint64 returns the next output, as math/rand's source does.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
		s.laps++
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	return s.step()
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// SkipInt31n advances src exactly as count calls of rand.New(src).Int31n(n)
// would, without computing the values those calls return. On a source from
// New it filters the draws as the package comment describes while they stay
// within 880 of the seed. Past that, and on any other source, it draws each
// value and compares it with Int31n's rejection limit instead of dividing.
// Like Int31n, it panics if n <= 0.
func SkipInt31n(src rand.Source64, n int32, count int) {
	if n <= 0 {
		panic("invalid argument to SkipInt31n")
	}
	// Int31n draws v = Int63()>>32 until v <= max; a power of two never
	// rejects.
	max := int32(1<<31 - 1)
	if n&(n-1) != 0 {
		max -= int32((1 << 31) % uint32(n))
	}
	if s, ok := src.(*source); ok {
		count = s.skip(max, count)
	}
	for ; count > 0; count-- {
		for int32(src.Int63()>>32) > max {
		}
	}
}

// skip is SkipInt31n's filter. It consumes calls while the draws stay
// within fastEnd of the seed and returns how many calls are left.
//
// Int31n rejects a draw only when its bits 32–62 exceed max, which needs
// bits 51–62 at or above lim = (max+1)>>19. Output j ≤ fastEnd sums k ≤ 6
// words, each seeded or already computed, so its bits 51–62 are the sum of
// the words' fields plus a carry in [0, k−1] from the bits below, mod 4096.
// While field sum + k − 1 stays below lim the draw is accepted unseen: its
// fed word becomes pending, with the draw number, k and the field sum as
// its record. Otherwise the output is computed in full and tested.
//
// Up to draw rngTap both words a draw reads still hold their seeded values,
// and up to draw rngLen the fed one does; those fields come from the seed
// without a look at the word's stamp. Draws up to rngTap, most of a
// geometry's skip, get a loop of their own.
func (s *source) skip(max int32, count int) int {
	lim := (uint32(max) + 1) >> 19
	j := s.laps*rngLen - s.tap // draws so far
	tap, feed, seed, mark := s.tap, s.feed, s.seed, s.gen|pending
	for ; count > 0 && j < rngTap; j++ {
		feed, tap = rngLen-rngTap-1-j, rngLen-1-j
		if f := (seededField(seed, feed) + seededField(seed, tap)) & fieldMask; f+1 < lim {
			s.vec[feed] = int64(j+1)<<16 | 2<<12 | int64(f)
			s.stamp[feed] = mark
			count--
		} else if s.accepts(tap, feed, max) {
			count--
		}
	}
	for ; count > 0 && j < fastEnd; j++ {
		if tap--; tap < 0 {
			tap += rngLen
		}
		if feed--; feed < 0 {
			feed += rngLen
		}
		fa, ka := uint32(0), uint32(1)
		if j < rngLen {
			fa = seededField(seed, feed)
		} else {
			fa, ka = s.fieldOf(feed)
		}
		fb, kb := s.fieldOf(tap)
		if f, k := (fa+fb)&fieldMask, ka+kb; f+k-1 < lim {
			s.vec[feed] = int64(j+1)<<16 | int64(k)<<12 | int64(f)
			s.stamp[feed] = mark
			count--
		} else if s.accepts(tap, feed, max) {
			count--
		}
	}
	s.tap, s.feed, s.laps = tap, feed, (j+rngLen-1)/rngLen
	return count
}

// accepts computes the draw at tap and feed in full and reports whether
// Int31n keeps it.
func (s *source) accepts(tap, feed int, max int32) bool {
	s.tap, s.feed = tap, feed
	return int32(s.step()<<1>>33) <= max
}

// fieldOf returns bits 51–62 of word i and the number of words they sum:
// the record's count for a pending word, one for any other.
func (s *source) fieldOf(i int) (field, terms uint32) {
	switch s.stamp[i] {
	case s.gen:
		return uint32(s.vec[i]>>fieldShift) & fieldMask, 1
	case s.gen | pending:
		r := uint32(s.vec[i])
		return r & fieldMask, r >> 12 & 15
	}
	return seededField(s.seed, i), 1
}
