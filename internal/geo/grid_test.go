package geo

import (
	"math/rand"
	"testing"

	"mmlab/internal/rng"
)

// randomSites scatters n sites over a rectangle with a corner away from the
// origin, so bucket-coordinate math is exercised with non-zero offsets.
func randomSites(rng *rand.Rand, n int) []Point {
	sites := make([]Point, n)
	for i := range sites {
		sites[i] = Pt(-3000+rng.Float64()*11000, 500+rng.Float64()*6000)
	}
	return sites
}

// TestGridIndexMatchesLinearScan is the differential property test: for
// randomized site sets, bucket sizes, query positions (inside and well
// outside the site bounding box) and radii, the grid must return exactly
// the indices the linear WithinRadius scan returns, in ascending order.
func TestGridIndexMatchesLinearScan(t *testing.T) {
	rng := rng.New(42)
	for _, n := range []int{1, 7, 500} {
		sites := randomSites(rng, n)
		for _, cellSize := range []float64{75, 400, 1300, 9000} {
			g := NewGridIndex(sites, cellSize)
			for q := 0; q < 300; q++ {
				pos := Pt(-8000+rng.Float64()*24000, -4000+rng.Float64()*16000)
				radius := rng.Float64() * 5000
				want := WithinRadius(pos, sites, radius)
				got := g.WithinRadius(pos, radius, nil)
				if len(got) != len(want) {
					t.Fatalf("n=%d cell=%g pos=%v r=%g: got %d sites, want %d",
						n, cellSize, pos, radius, len(got), len(want))
				}
				for i := range want {
					if int(got[i]) != want[i] {
						t.Fatalf("n=%d cell=%g pos=%v r=%g: index %d: got %d, want %d",
							n, cellSize, pos, radius, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestGridIndexEdgeCases(t *testing.T) {
	empty := NewGridIndex(nil, 100)
	if got := empty.WithinRadius(Pt(0, 0), 1e9, nil); len(got) != 0 {
		t.Fatalf("empty index returned %v", got)
	}
	sites := []Point{Pt(10, 10), Pt(10, 10), Pt(-5, 3)}
	g := NewGridIndex(sites, 4)
	// Zero radius still matches sites exactly at the query point.
	if got := g.WithinRadius(Pt(10, 10), 0, nil); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("zero-radius query: got %v, want [0 1]", got)
	}
	// Negative radius matches nothing.
	if got := g.WithinRadius(Pt(10, 10), -1, nil); len(got) != 0 {
		t.Fatalf("negative-radius query: got %v", got)
	}
	// A radius covering everything returns all indices in order.
	if got := g.WithinRadius(Pt(1000, -1000), 1e6, nil); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("all-covering query: got %v", got)
	}
}

// TestGridIndexBufReuse checks that reusing a result buffer neither leaks
// prior contents nor changes the answer.
func TestGridIndexBufReuse(t *testing.T) {
	rng := rng.New(9)
	sites := randomSites(rng, 200)
	g := NewGridIndex(sites, 500)
	buf := g.WithinRadius(Pt(0, 3000), 2500, nil)
	first := append([]int32(nil), buf...)
	// A disjoint query reusing the buffer...
	buf = g.WithinRadius(Pt(7000, 1000), 900, buf)
	// ...then the original query again must reproduce the first answer.
	buf = g.WithinRadius(Pt(0, 3000), 2500, buf)
	if len(buf) != len(first) {
		t.Fatalf("reused buffer changed result length: %d vs %d", len(buf), len(first))
	}
	for i := range first {
		if buf[i] != first[i] {
			t.Fatalf("reused buffer changed result at %d: %d vs %d", i, buf[i], first[i])
		}
	}
}
