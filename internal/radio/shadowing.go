package radio

import (
	"math"
	"math/rand"

	"mmlab/internal/rng"
	"mmlab/internal/units"
)

// ShadowField is a deterministic, spatially correlated log-normal shadowing
// field. Real drive traces show RSRP wobbling a few dB over tens of meters
// ("3dB measurement dynamics is common", paper §4.1); a correlated field
// reproduces that texture so time-to-trigger and hysteresis logic is
// exercised realistically.
//
// The field is built from a small set of random cosine plane waves (a
// spectral method): Gaussian-ish marginals, tunable correlation distance,
// fully deterministic from the seed, and evaluable at any coordinate with
// no stored grid.
type ShadowField struct {
	kx    [nWaves]float64
	ky    [nWaves]float64
	phase [nWaves]float64
	amp   float64
}

// nWaves is the number of plane waves in every ShadowField.
const nWaves = 24

// NewShadowField creates a field with the given dB standard deviation and
// decorrelation distance in meters. Each cell gets its own field (seeded by
// cell identity) so shadowing to different cells is independent.
func NewShadowField(seed int64, sigmaDB, corrDist float64) *ShadowField {
	rng := rng.New(seed)
	f := &ShadowField{}
	if corrDist <= 0 {
		corrDist = 50
	}
	for i := 0; i < nWaves; i++ {
		// Wave numbers concentrated around 2π/corrDist with spread, random
		// directions — yields an isotropic field decorrelating at ~corrDist.
		k := (0.3 + rng.Float64()*1.7) * 2 * math.Pi / corrDist
		theta := rng.Float64() * 2 * math.Pi
		f.kx[i] = k * math.Cos(theta)
		f.ky[i] = k * math.Sin(theta)
		f.phase[i] = rng.Float64() * 2 * math.Pi
	}
	// Sum of nWaves unit cosines has variance nWaves/2; scale to sigma.
	f.amp = sigmaDB / math.Sqrt(float64(nWaves)/2)
	return f
}

// At evaluates the shadowing in dB at position (x, y) meters. Positive
// values attenuate (they are added to path loss).
func (f *ShadowField) At(x, y float64) units.Db {
	s := 0.0
	for i := range f.kx {
		s += cos(f.kx[i]*x + f.ky[i]*y + f.phase[i])
	}
	return units.Db(s * f.amp)
}

// FastFading models small-scale fading as a first-order autoregressive dB
// process evaluated per measurement sample. It is intentionally light: L1
// averaging inside real UEs removes most Rayleigh structure before the
// RRC-layer values the paper studies, leaving a small residual jitter.
type FastFading struct {
	rng   *rand.Rand
	state float64
	sigma float64
	rho   float64
}

// NewFastFading creates a fading process with the given residual standard
// deviation in dB and per-step correlation rho in [0,1).
func NewFastFading(seed int64, sigmaDB, rho float64) *FastFading {
	if rho < 0 {
		rho = 0
	}
	if rho >= 1 {
		rho = 0.99
	}
	return &FastFading{rng: rng.New(seed), sigma: sigmaDB, rho: rho}
}

// Next advances the process one measurement interval and returns the fading
// term in dB.
func (ff *FastFading) Next() units.Db {
	innov := ff.rng.NormFloat64() * ff.sigma * math.Sqrt(1-ff.rho*ff.rho)
	ff.state = ff.rho*ff.state + innov
	return units.Db(ff.state)
}
