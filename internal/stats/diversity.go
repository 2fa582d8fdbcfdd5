package stats

import (
	"math"
	"sort"
)

// Counts tallies occurrences of discrete values. Keys are the parameter
// values observed (the paper treats each observed configuration parameter
// value as one sample, §5).
type Counts map[float64]int

// CountValues builds a Counts tally from raw samples.
func CountValues(xs []float64) Counts {
	c := make(Counts, 16)
	for _, x := range xs {
		c[x]++
	}
	return c
}

// Total returns the total number of samples N = Σ n_i.
func (c Counts) Total() int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}

// Richness returns the number of distinct values m (the "naive measure"
// the paper contrasts the Simpson index against, Fig. 16 bottom panel).
func (c Counts) Richness() int { return len(c) }

// Values returns the distinct values sorted ascending.
func (c Counts) Values() []float64 {
	vs := make([]float64, 0, len(c))
	for v := range c {
		vs = append(vs, v)
	}
	sort.Float64s(vs)
	return vs
}

// Dominant returns the most frequent value and its share of all samples.
// Ties break toward the smaller value for determinism.
func (c Counts) Dominant() (value float64, share float64) {
	if len(c) == 0 {
		return math.NaN(), 0
	}
	n := c.Total()
	best := math.Inf(1)
	bestN := -1
	for _, v := range c.Values() {
		if c[v] > bestN {
			best, bestN = v, c[v]
		}
	}
	return best, float64(bestN) / float64(n)
}

// SimpsonIndex computes the Simpson index of diversity (paper Eq. 4):
//
//	D = 1 − Σ n_i² / N²
//
// D ∈ [0,1]; 0 means a single value dominates completely, values near 1
// mean samples are spread across many values.
func SimpsonIndex(c Counts) float64 {
	n := c.Total()
	if n == 0 {
		return 0
	}
	sum := 0.0
	for _, ni := range c {
		sum += float64(ni) * float64(ni)
	}
	return 1 - sum/(float64(n)*float64(n))
}

// SimpsonIndexOf is SimpsonIndex over raw samples.
func SimpsonIndexOf(xs []float64) float64 { return SimpsonIndex(CountValues(xs)) }

// CoefficientOfVariation computes Cv = sqrt(Var[X]) / E[X] (paper Eq. 4),
// the dispersion measure complementing the Simpson index. Following the
// paper's usage on magnitude-style parameters, the result is reported as a
// non-negative ratio; it returns 0 for empty input or a zero mean (the
// paper's single-valued parameters plot as Cv = 0, e.g. Hs in Fig. 16).
func CoefficientOfVariation(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return math.Abs(math.Sqrt(Variance(xs)) / m)
}

// Diversity bundles the three diversity measures the paper reports per
// parameter (Fig. 16): Simpson index (distribution), coefficient of
// variation (dispersion), and richness (# distinct values).
type Diversity struct {
	Simpson  float64
	Cv       float64
	Richness int
}

// DiversityOf computes all three measures over raw samples.
func DiversityOf(xs []float64) Diversity {
	c := CountValues(xs)
	return Diversity{
		Simpson:  SimpsonIndex(c),
		Cv:       CoefficientOfVariation(xs),
		Richness: c.Richness(),
	}
}

// Dependence computes the paper's dependence measure (Eq. 5):
//
//	ζ_{M,θ|F} = E[ |M(θ|F=F_j) − M(θ)| ]
//
// where measure is the diversity measure M (applied to samples), overall is
// the unconditioned sample set, and groups partitions the samples by factor
// value F_j (frequency, city, neighborhood...). The expectation weights each
// factor value equally, matching the paper's definition over the set {F_j}.
// Empty groups are skipped; it returns 0 when no non-empty groups exist.
func Dependence(measure func([]float64) float64, overall []float64, groups map[string][]float64) float64 {
	m := measure(overall)
	sum, n := 0.0, 0
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		sum += math.Abs(measure(g) - m)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
