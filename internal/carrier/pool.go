package carrier

import (
	"hash/fnv"
	"math/rand"
)

// Pool is a weighted discrete distribution over parameter values: one
// "configuration policy option" set in the paper's terms ("Operators use a
// few popular choices to decide their policy practice", §1).
type Pool struct {
	Values  []float64
	Weights []float64
	total   float64
}

// NewPool builds a pool; weights need not be normalized. Mismatched or
// empty inputs panic: pools are static policy data, so this is a
// programming error, not an input error.
func NewPool(values []float64, weights []float64) Pool {
	if len(values) == 0 || len(values) != len(weights) {
		panic("carrier: malformed pool")
	}
	p := Pool{Values: values, Weights: weights}
	for _, w := range weights {
		if w < 0 {
			panic("carrier: negative pool weight")
		}
		p.total += w
	}
	if p.total == 0 {
		panic("carrier: zero-weight pool")
	}
	return p
}

// Single builds a single-valued pool (the paper's "single dominant value"
// parameters, e.g. Hs = 4 dB in AT&T).
func Single(v float64) Pool { return NewPool([]float64{v}, []float64{1}) }

// Uniform builds an equal-weight pool.
func Uniform(values ...float64) Pool {
	w := make([]float64, len(values))
	for i := range w {
		w[i] = 1
	}
	return NewPool(values, w)
}

// Dominated builds a pool where main carries domShare of the weight and
// the rest is spread evenly over others (the paper's "skewed distribution
// with one or few dominant values").
func Dominated(main float64, domShare float64, others ...float64) Pool {
	vals := append([]float64{main}, others...)
	ws := make([]float64, len(vals))
	ws[0] = domShare
	if len(others) > 0 {
		rest := (1 - domShare) / float64(len(others))
		for i := 1; i < len(ws); i++ {
			ws[i] = rest
		}
	}
	return NewPool(vals, ws)
}

// Pick draws one value deterministically from rng.
func (p Pool) Pick(rng *rand.Rand) float64 {
	x := rng.Float64() * p.total
	acc := 0.0
	for i, w := range p.Weights {
		acc += w
		if x < acc {
			return p.Values[i]
		}
	}
	return p.Values[len(p.Values)-1]
}

// IsSingle reports whether the pool has exactly one value.
func (p Pool) IsSingle() bool { return len(p.Values) == 1 }

// seedFor derives a stable 64-bit seed from string parts, so every
// generated artifact is a pure function of (carrier, scope, entity).
func seedFor(parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return int64(h.Sum64())
}

// seedWith mixes a string seed with integers.
func seedWith(base string, nums ...uint64) int64 {
	h := fnv.New64a()
	h.Write([]byte(base))
	var b [8]byte
	for _, n := range nums {
		for i := 0; i < 8; i++ {
			b[i] = byte(n >> (8 * i))
		}
		h.Write(b[:])
	}
	return int64(h.Sum64())
}
