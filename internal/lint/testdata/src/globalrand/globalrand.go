// Package globalrand is mmvet analyzer testdata: package-level
// math/rand draws are banned everywhere, rand.NewSource everywhere but
// internal/rng; seeded *rand.Rand flows are legal.
package globalrand

import "math/rand"

func draws() (int, float64) {
	a := rand.Intn(10)                 // want "rand.Intn draws from the process-global source"
	b := rand.Float64()                // want "rand.Float64 draws from the process-global source"
	rand.Shuffle(a, func(i, j int) {}) // want "rand.Shuffle draws from the process-global source"
	return a, b
}

// Seeded generators are the sanctioned pattern: rand.New over a source
// is legal, and methods on the injected *rand.Rand are not package-level
// draws.
func seeded(src rand.Source) float64 {
	rng := rand.New(src)
	return rng.Float64() + float64(rng.Intn(3))
}

// Seeding itself has one path, rng.New; rand.NewSource is reported
// everywhere but internal/rng.
func reseeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want "rand.NewSource seeds outside internal/rng"
}

func annotated() int {
	//mmvet:allow globalrand jitter for a log line, never feeds output
	return rand.Intn(100)
}
