package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs (a copy is taken and sorted).
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x) as a fraction in [0,1]; NaN when the sample is empty.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	// first index with sorted[i] > x
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Inverse returns the smallest sample value v with P(X <= v) >= p.
func (c *CDF) Inverse(p float64) float64 {
	if len(c.sorted) == 0 || p < 0 || p > 1 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.sorted) {
		i = len(c.sorted) - 1
	}
	return c.sorted[i]
}

// Boxplot summarizes a sample the way the paper's boxplot figures do
// (Figs. 9, 21, 22): quartiles plus whiskers at the most extreme data
// points within 1.5 IQR of the box.
type Boxplot struct {
	Min, Q1, Median, Q3, Max float64 // Min/Max are whisker ends
	Lo, Hi                   float64 // true data extremes
	N                        int
	Outliers                 []float64
}

// NewBoxplot computes boxplot statistics over xs.
func NewBoxplot(xs []float64) Boxplot {
	b := Boxplot{N: len(xs)}
	if len(xs) == 0 {
		b.Min, b.Q1, b.Median, b.Q3, b.Max = math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()
		b.Lo, b.Hi = math.NaN(), math.NaN()
		return b
	}
	b.Q1 = Quantile(xs, 0.25)
	b.Median = Quantile(xs, 0.5)
	b.Q3 = Quantile(xs, 0.75)
	b.Lo = Min(xs)
	b.Hi = Max(xs)
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.Min, b.Max = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
			continue
		}
		if x < b.Min {
			b.Min = x
		}
		if x > b.Max {
			b.Max = x
		}
	}
	if math.IsInf(b.Min, 1) { // everything was an outlier (degenerate)
		b.Min, b.Max = b.Lo, b.Hi
	}
	sort.Float64s(b.Outliers)
	return b
}

// String renders the five-number summary.
func (b Boxplot) String() string {
	return fmt.Sprintf("n=%d [%.2f | %.2f %.2f %.2f | %.2f]", b.N, b.Min, b.Q1, b.Median, b.Q3, b.Max)
}

// Distribution is a discrete value→share table, sorted by value — the form
// in which the paper reports parameter distributions (Figs. 5, 14, 15, 18).
type Distribution struct {
	Value []float64
	Share []float64
	N     int
}

// NewDistribution tallies xs into a normalized discrete distribution.
func NewDistribution(xs []float64) Distribution {
	c := CountValues(xs)
	vals := c.Values()
	d := Distribution{N: len(xs)}
	for _, v := range vals {
		d.Value = append(d.Value, v)
		d.Share = append(d.Share, float64(c[v])/float64(len(xs)))
	}
	return d
}

// ShareOf returns the share of value v (0 when absent).
func (d Distribution) ShareOf(v float64) float64 {
	for i, x := range d.Value {
		if x == v {
			return d.Share[i]
		}
	}
	return 0
}

// String renders "v1:12.3% v2:87.7%".
func (d Distribution) String() string {
	var b strings.Builder
	for i := range d.Value {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%g:%.1f%%", d.Value[i], d.Share[i]*100)
	}
	return b.String()
}
