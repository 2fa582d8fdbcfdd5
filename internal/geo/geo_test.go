package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	tests := []struct {
		a, b Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(-1, -1), Pt(2, 3), 5},
		{Pt(1000, 0), Pt(0, 0), 1000},
	}
	for _, tt := range tests {
		if got := tt.a.Dist(tt.b); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Dist(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
}

func TestLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Pt(10, -5), Pt(-10, 5))
	if r.Min != Pt(-10, -5) || r.Max != Pt(10, 5) {
		t.Errorf("NewRect = %+v", r)
	}
	if r.Width() != 20 || r.Height() != 10 || r.Area() != 200 {
		t.Errorf("dims: w=%v h=%v a=%v", r.Width(), r.Height(), r.Area())
	}
	if r.Center() != Pt(0, 0) {
		t.Errorf("Center = %v", r.Center())
	}
}

func TestRectContainsClamp(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	if !r.Contains(Pt(5, 5)) || !r.Contains(Pt(0, 0)) || !r.Contains(Pt(10, 10)) {
		t.Error("Contains should include interior and boundary")
	}
	if r.Contains(Pt(-0.1, 5)) || r.Contains(Pt(5, 10.1)) {
		t.Error("Contains should exclude exterior")
	}
}

func TestExpand(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10)).Expand(5)
	if r.Min != Pt(-5, -5) || r.Max != Pt(15, 15) {
		t.Errorf("Expand = %+v", r)
	}
}

func TestHexLatticeCoverage(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(5000, 5000))
	isd := 500.0
	sites := HexLattice(r, isd, Pt(0, 0))
	if len(sites) == 0 {
		t.Fatal("no sites generated")
	}
	// Every point in the region must be within one ISD of some site
	// (hex lattice guarantees coverage radius = isd/sqrt(3) ≈ 0.577*isd).
	for x := 0.0; x <= 5000; x += 333 {
		for y := 0.0; y <= 5000; y += 333 {
			d := math.Inf(1)
			for _, s := range sites {
				d = math.Min(d, Pt(x, y).Dist(s))
			}
			if d > isd {
				t.Fatalf("point (%v,%v) is %.0fm from nearest site, want <= %v", x, y, d, isd)
			}
		}
	}
}

func TestHexLatticeSpacing(t *testing.T) {
	sites := HexLattice(NewRect(Pt(0, 0), Pt(3000, 3000)), 400, Pt(0, 0))
	// Minimum pairwise distance must be >= ISD*sqrt(3)/2 (row spacing) within
	// float tolerance; no duplicate/near-duplicate sites.
	min := math.Inf(1)
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			if d := sites[i].Dist(sites[j]); d < min {
				min = d
			}
		}
	}
	if want := 400 * math.Sqrt(3) / 2; min < want-1e-6 {
		t.Errorf("min spacing %.2f < %.2f", min, want)
	}
}

func TestHexLatticeOffsetShifts(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(2000, 2000))
	a := HexLattice(r, 500, Pt(0, 0))
	b := HexLattice(r, 500, Pt(123, 77))
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty lattices")
	}
	same := 0
	for _, p := range a {
		for _, q := range b {
			if p.Dist(q) < 1 {
				same++
			}
		}
	}
	if same == len(a) {
		t.Error("offset lattice identical to base lattice")
	}
}

func TestHexLatticeInvalidISD(t *testing.T) {
	if got := HexLattice(NewRect(Pt(0, 0), Pt(100, 100)), 0, Pt(0, 0)); got != nil {
		t.Errorf("ISD 0 should yield nil, got %d sites", len(got))
	}
	if got := HexLattice(NewRect(Pt(0, 0), Pt(100, 100)), -5, Pt(0, 0)); got != nil {
		t.Errorf("negative ISD should yield nil, got %d sites", len(got))
	}
}

func TestWithinRadius(t *testing.T) {
	sites := []Point{Pt(0, 0), Pt(300, 0), Pt(600, 0), Pt(0, 450)}
	got := WithinRadius(Pt(0, 0), sites, 500)
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("WithinRadius = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WithinRadius = %v, want %v", got, want)
		}
	}
}

func TestWithinRadiusBoundaryInclusive(t *testing.T) {
	sites := []Point{Pt(500, 0)}
	if got := WithinRadius(Pt(0, 0), sites, 500); len(got) != 1 {
		t.Errorf("boundary site should be included, got %v", got)
	}
}
