package rng_test

import (
	"math"
	"math/rand"
	"testing"

	"mmlab/internal/rng"
)

// equivDraws is the number of mixed operations compared per seed. The
// operations consume more than one source draw each on average, so
// every stream runs well past draw 273 (the first read of a word an
// earlier draw wrote) and draw 607 (one full turn of the register).
const equivDraws = 2000

// equivSeeds covers the seed normalization edges (zero and the seeds
// math/rand maps to it, negative seeds, seeds at and beyond 2³¹−1, the
// int64 extremes, math/rand's substitute for zero) plus a couple of
// hundred seeds spread over the int64 range.
func equivSeeds() []int64 {
	seeds := []int64{
		0, -1, 1, 2, 89482311, -89482311,
		math.MaxInt32, math.MaxInt32 + 1, -math.MaxInt32, -math.MaxInt32 - 1,
		2 * math.MaxInt32, 2*math.MaxInt32 + 1, math.MaxInt32 - 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	spread := rand.New(rand.NewSource(20181031))
	for i := 0; i < 200; i++ {
		s := spread.Int63()
		if i%2 == 1 {
			s = -s
		}
		if i%5 == 0 {
			s >>= 33 // seeds below 2³¹, where no reduction happens
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// compareStreams drives got and want through the same mix of draw kinds
// and fails on the first difference.
func compareStreams(t *testing.T, seed int64, got, want *rand.Rand) {
	t.Helper()
	for i := 0; i < equivDraws; i++ {
		var g, w any
		switch i % 7 {
		case 0:
			g, w = got.Float64(), want.Float64()
		case 1:
			n := 1 + i%97
			g, w = got.Intn(n), want.Intn(n)
		case 2:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 3:
			g, w = got.Int63(), want.Int63()
		case 4:
			g, w = got.Uint64(), want.Uint64()
		case 5:
			n := 1 + i%9
			gp, wp := got.Perm(n), want.Perm(n)
			for j := range gp {
				if gp[j] != wp[j] {
					t.Fatalf("seed %d, op %d: Perm(%d) = %v, math/rand %v", seed, i, n, gp, wp)
				}
			}
			continue
		case 6:
			g, w = got.Intn(1<<40), want.Intn(1<<40)
		}
		if g != w {
			t.Fatalf("seed %d, op %d: got %v, math/rand %v", seed, i, g, w)
		}
	}
}

// TestNewMatchesMathRand is the bit-equality contract: every draw of
// New(seed) equals that of rand.New(rand.NewSource(seed)). It is also
// the alarm if a toolchain ever changes math/rand's seeded stream.
func TestNewMatchesMathRand(t *testing.T) {
	for _, seed := range equivSeeds() {
		compareStreams(t, seed, rng.New(seed), rand.New(rand.NewSource(seed)))
	}
}

// TestReseedMatchesMathRand re-seeds through Rand.Seed both after the
// full register has been built and while the source is still lazy.
func TestReseedMatchesMathRand(t *testing.T) {
	seeds := equivSeeds()
	for i, seed := range seeds {
		next := seeds[(i+1)%len(seeds)]
		for _, burn := range []int{0, 100, 272, 273, 274, 900} {
			got, want := rng.New(seed), rand.New(rand.NewSource(seed))
			for j := 0; j < burn; j++ {
				got.Int63()
				want.Int63()
			}
			got.Seed(next)
			want.Seed(next)
			compareStreams(t, next, got, want)
		}
	}
}

// sink keeps the benchmarked draws live.
var sink float64

// BenchmarkNew is the seeding kernel as the fleet generators use it:
// seed a generator, then draw once.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = rng.New(int64(i)).Float64()
	}
}

// BenchmarkMathRandNew is BenchmarkNew over math/rand's eager source,
// for comparison.
func BenchmarkMathRandNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = rand.New(rand.NewSource(int64(i))).Float64()
	}
}

// longLivedDraws takes a generator past the register build at draw 273,
// as the per-UE fading and mobility generators go.
const longLivedDraws = 1000

// BenchmarkNewLongLived seeds a generator and draws longLivedDraws
// times.
func BenchmarkNewLongLived(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rng.New(int64(i))
		for j := 0; j < longLivedDraws; j++ {
			sink = r.Float64()
		}
	}
}

// BenchmarkMathRandNewLongLived is BenchmarkNewLongLived over
// math/rand's eager source, for comparison.
func BenchmarkMathRandNewLongLived(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < longLivedDraws; j++ {
			sink = r.Float64()
		}
	}
}
