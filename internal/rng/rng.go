// Package rng is the one seeding path for every seeded generator in the
// module. New(seed) returns a *rand.Rand whose stream is bit-identical
// to rand.New(rand.NewSource(seed)), but whose seeding is a few
// arithmetic operations instead of filling math/rand's 607-word state
// up front.
//
// The fleet generators seed a fresh source for nearly every parameter
// they draw and most of those sources serve a single draw, so the
// eager fill dominated the D2 crawl. A source that lives past draw 273
// costs about what the eager fill does (BenchmarkNewLongLived). Here
// the state is computed lazily:
//
//   - math/rand seeds with the Lehmer LCG x ← 48271·x mod (2³¹−1), so
//     state word i is (x₁<<40) ^ (x₂<<20) ^ x₃ ^ rngCooked[i], where
//     x₁ = s·48271^(21+3i) mod (2³¹−1) for the normalized seed s, and
//     x₂, x₃ are the next two LCG steps. One precomputed power per word
//     gives any word in O(1).
//   - Draw k < 273 adds words 333−k and 606−k, neither of which an
//     earlier draw has written, so those draws compute just two words.
//   - Draw 273 is the first to read a word an earlier draw wrote. It
//     builds the full register, replays the 273 feed additions, and from
//     then on runs math/rand's own additive lagged Fibonacci step.
//
// The equivalence test against math/rand is the contract; the math/rand
// documentation promises its seeded stream never changes.
package rng

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lcgMul   = 48271
	// zeroSeed is what math/rand substitutes for a seed ≡ 0 mod 2³¹−1.
	zeroSeed = 89482311
)

// pow[i] = 48271^(21+3i) mod (2³¹−1): the multiplier taking the
// normalized seed to x₁ of state word i. math/rand discards 20 LCG
// steps and then spends three per word.
var pow = func() (p [rngLen]uint64) {
	x := uint64(1)
	for i := 0; i < 21; i++ {
		x = x * lcgMul % int32max
	}
	for i := range p {
		p[i] = x
		for j := 0; j < 3; j++ {
			x = x * lcgMul % int32max
		}
	}
	return p
}()

// New returns a generator seeded with seed whose every draw equals that
// of rand.New(rand.NewSource(seed)). Like math/rand's, it is not safe
// for concurrent use.
func New(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// source is a rand.Source64 with math/rand's stream. Until the register
// is built, tap and feed are unused and vec may hold a stale register
// from before a re-seed.
type source struct {
	seed      uint64 // normalized seed, in [1, 2³¹−2]
	drawn     int    // draws served; stops counting at rngTap+1
	tap, feed int
	vec       *[rngLen]int64
}

// Seed resets the source to the stream of rand.NewSource(seed).
func (s *source) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.drawn = 0
}

func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

func (s *source) Uint64() uint64 {
	if s.drawn < rngTap {
		k := s.drawn
		s.drawn++
		return uint64(s.word(rngLen-rngTap-1-k) + s.word(rngLen-1-k))
	}
	if s.drawn == rngTap {
		s.fill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// word is state word i of math/rand's freshly seeded register.
func (s *source) word(i int) int64 {
	x1 := s.seed * pow[i] % int32max
	x2 := x1 * lcgMul % int32max
	x3 := x2 * lcgMul % int32max
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ rngCooked[i]
}

// fill builds the register as it stands after the first rngTap draws,
// with tap and feed where math/rand's would be.
func (s *source) fill() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for k := 0; k < rngTap; k++ {
		s.vec[rngLen-rngTap-1-k] += s.vec[rngLen-1-k]
	}
	s.tap = rngLen - rngTap
	s.feed = rngLen - 2*rngTap
	s.drawn++
}
