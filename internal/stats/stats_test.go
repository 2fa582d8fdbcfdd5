package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
}

func TestEmptyInputs(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) || !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty-input statistics should be NaN")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(empty) should be NaN")
	}
	if CoefficientOfVariation(nil) != 0 {
		t.Error("Cv(empty) should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	tests := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEq(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element quantile = %v", got)
	}
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range q should be NaN")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimpsonIndex(t *testing.T) {
	// Single value → 0.
	if d := SimpsonIndexOf([]float64{4, 4, 4, 4}); d != 0 {
		t.Errorf("single-valued Simpson = %v, want 0", d)
	}
	// Two equally likely values → 1 - 2*(1/2)² = 0.5.
	if d := SimpsonIndexOf([]float64{1, 2, 1, 2}); !almostEq(d, 0.5, 1e-12) {
		t.Errorf("two-valued Simpson = %v, want 0.5", d)
	}
	// Eight equally likely values → 1 - 8/64 = 0.875.
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	if d := SimpsonIndexOf(xs); !almostEq(d, 0.875, 1e-12) {
		t.Errorf("eight-valued Simpson = %v, want 0.875", d)
	}
	if d := SimpsonIndex(Counts{}); d != 0 {
		t.Errorf("empty Simpson = %v, want 0", d)
	}
}

func TestSimpsonIndexRange(t *testing.T) {
	f := func(raw []uint8) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r % 16)
		}
		d := SimpsonIndexOf(xs)
		return d >= 0 && d < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimpsonSkewedLowerThanEven(t *testing.T) {
	even := []float64{1, 2, 3, 4, 1, 2, 3, 4}
	skew := []float64{1, 1, 1, 1, 1, 2, 3, 4}
	if SimpsonIndexOf(skew) >= SimpsonIndexOf(even) {
		t.Error("skewed distribution should have lower Simpson index than even one")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if cv := CoefficientOfVariation([]float64{5, 5, 5}); cv != 0 {
		t.Errorf("constant Cv = %v, want 0", cv)
	}
	// mean 10, stdev sqrt(50*... ) — use known: {5,15}: mean 10, var 25, sd 5, Cv 0.5
	if cv := CoefficientOfVariation([]float64{5, 15}); !almostEq(cv, 0.5, 1e-12) {
		t.Errorf("Cv = %v, want 0.5", cv)
	}
	// Negative-mean data reports magnitude ratio (non-negative).
	if cv := CoefficientOfVariation([]float64{-5, -15}); cv < 0 {
		t.Errorf("Cv should be non-negative, got %v", cv)
	}
	if cv := CoefficientOfVariation([]float64{-1, 1}); cv != 0 {
		t.Errorf("zero-mean Cv = %v, want 0 sentinel", cv)
	}
}

func TestCountsBasics(t *testing.T) {
	c := CountValues([]float64{3, 1, 3, 3, 2})
	if c.Total() != 5 || c.Richness() != 3 {
		t.Fatalf("Total=%d Richness=%d", c.Total(), c.Richness())
	}
	vs := c.Values()
	if len(vs) != 3 || vs[0] != 1 || vs[2] != 3 {
		t.Errorf("Values = %v", vs)
	}
	v, share := c.Dominant()
	if v != 3 || !almostEq(share, 0.6, 1e-12) {
		t.Errorf("Dominant = %v/%v", v, share)
	}
}

func TestDominantEmpty(t *testing.T) {
	v, share := Counts{}.Dominant()
	if !math.IsNaN(v) || share != 0 {
		t.Errorf("Dominant(empty) = %v/%v", v, share)
	}
}

func TestDiversityOf(t *testing.T) {
	d := DiversityOf([]float64{4, 4, 4})
	if d.Simpson != 0 || d.Cv != 0 || d.Richness != 1 {
		t.Errorf("single-valued Diversity = %+v", d)
	}
}

func TestDependence(t *testing.T) {
	// All groups identical to overall → ζ = 0.
	overall := []float64{1, 2, 1, 2}
	groups := map[string][]float64{
		"a": {1, 2, 1, 2},
		"b": {2, 1, 2, 1},
	}
	if z := Dependence(SimpsonIndexOf, overall, groups); z != 0 {
		t.Errorf("identical groups ζ = %v, want 0", z)
	}
	// Groups each single-valued while overall diverse → ζ = overall Simpson.
	groups2 := map[string][]float64{
		"a": {1, 1},
		"b": {2, 2},
	}
	want := SimpsonIndexOf(overall)
	if z := Dependence(SimpsonIndexOf, overall, groups2); !almostEq(z, want, 1e-12) {
		t.Errorf("fully dependent ζ = %v, want %v", z, want)
	}
	// Empty groups skipped; no groups → 0.
	if z := Dependence(SimpsonIndexOf, overall, map[string][]float64{"a": {}}); z != 0 {
		t.Errorf("empty-group ζ = %v, want 0", z)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	tests := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); !almostEq(got, tt.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if got := c.Inverse(0.5); got != 2 {
		t.Errorf("Inverse(0.5) = %v, want 2", got)
	}
	if got := c.Inverse(1); got != 4 {
		t.Errorf("Inverse(1) = %v, want 4", got)
	}
	if !math.IsNaN(NewCDF(nil).At(1)) {
		t.Error("empty CDF should be NaN")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []int8) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		prev := -1.0
		for x := -130.0; x <= 130; x += 10 {
			p := c.At(x)
			if p < prev {
				return false
			}
			prev = p
		}
		return prev == 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxplot(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b := NewBoxplot(xs)
	if b.Median != 5 || b.N != 9 {
		t.Errorf("Boxplot = %+v", b)
	}
	if b.Min != 1 || b.Max != 9 || len(b.Outliers) != 0 {
		t.Errorf("whiskers = %v..%v outliers=%v", b.Min, b.Max, b.Outliers)
	}
}

func TestBoxplotOutliers(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 100}
	b := NewBoxplot(xs)
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("outliers = %v", b.Outliers)
	}
	if b.Max == 100 {
		t.Error("whisker should not extend to outlier")
	}
	if b.Hi != 100 || b.Lo != 1 {
		t.Errorf("data extremes = %v..%v", b.Lo, b.Hi)
	}
}

func TestBoxplotEmpty(t *testing.T) {
	b := NewBoxplot(nil)
	if b.N != 0 || !math.IsNaN(b.Median) {
		t.Errorf("empty boxplot = %+v", b)
	}
}

func TestDistribution(t *testing.T) {
	d := NewDistribution([]float64{2, 2, 2, 7})
	if d.N != 4 || len(d.Value) != 2 {
		t.Fatalf("Distribution = %+v", d)
	}
	if !almostEq(d.ShareOf(2), 0.75, 1e-12) || !almostEq(d.ShareOf(7), 0.25, 1e-12) {
		t.Errorf("shares = %v / %v", d.ShareOf(2), d.ShareOf(7))
	}
	if d.ShareOf(99) != 0 {
		t.Error("absent value share should be 0")
	}
	if s := d.String(); s == "" {
		t.Error("String should be non-empty")
	}
}

func TestDistributionSharesSumToOne(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r % 5)
		}
		d := NewDistribution(xs)
		sum := 0.0
		for _, s := range d.Share {
			sum += s
		}
		return almostEq(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
