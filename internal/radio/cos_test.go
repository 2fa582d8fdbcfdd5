package radio

import (
	"math"
	"testing"

	"mmlab/internal/rng"
)

// cosEdgeCases are the arguments where a copied kernel is most likely to
// part from math.Cos: signed zeros, the smallest subnormal, the octant
// boundaries and their neighbours, the switch to Payne–Hanek reduction
// at 2²⁹, and the special values.
func cosEdgeCases() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1e300, -1e300,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, v := range []float64{1 << 29, -(1 << 29)} {
		xs = append(xs, v, math.Nextafter(v, 0), math.Nextafter(v, 2*v))
	}
	for k := -64; k <= 64; k++ {
		v := float64(k) * math.Pi / 4
		xs = append(xs, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
	}
	return xs
}

func checkCos(t *testing.T, x float64) {
	t.Helper()
	if got, want := math.Float64bits(cos(x)), math.Float64bits(math.Cos(x)); got != want {
		t.Fatalf("cos(%v [%#016x]) = %#016x, math.Cos = %#016x", x, math.Float64bits(x), got, want)
	}
}

// TestCosMatchesMath pins cos to math.Cos bit for bit on the edge cases
// and on a million seeded arguments in each of four ranges: near the
// origin, the drive range of ShadowField.At's phases, everything up to
// the Payne–Hanek threshold at 2²⁹, and up to 2³², mostly past it.
func TestCosMatchesMath(t *testing.T) {
	for _, x := range cosEdgeCases() {
		checkCos(t, x)
	}
	r := rng.New(19)
	for _, bound := range []float64{10, 3000, 1 << 29, 1 << 32} {
		for i := 0; i < 1_000_000; i++ {
			checkCos(t, (2*r.Float64()-1)*bound)
		}
	}
}

// FuzzCos checks the same bit equality on arbitrary arguments.
func FuzzCos(f *testing.F) {
	for _, x := range cosEdgeCases() {
		f.Add(x)
	}
	f.Fuzz(checkCos)
}
