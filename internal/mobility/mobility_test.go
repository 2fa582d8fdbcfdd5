package mobility

import (
	"math"
	"testing"
	"testing/quick"

	"mmlab/internal/geo"
)

func TestKmhToMps(t *testing.T) {
	if KmhToMps(36) != 10 {
		t.Errorf("KmhToMps(36) = %v", KmhToMps(36))
	}
}

func TestStatic(t *testing.T) {
	s := Static{Pos: geo.Pt(5, 7)}
	if s.At(0) != geo.Pt(5, 7) || s.At(1e9) != geo.Pt(5, 7) {
		t.Error("static moved")
	}
}

func TestLinear(t *testing.T) {
	l := NewLinear(geo.Pt(0, 0), 0, 36) // 10 m/s along +X
	if got := l.At(1000); math.Abs(got.X-10) > 1e-9 || math.Abs(got.Y) > 1e-9 {
		t.Errorf("At(1s) = %v", got)
	}
	if got := l.At(0); got != geo.Pt(0, 0) {
		t.Errorf("At(0) = %v", got)
	}
	// Heading π/2 moves along +Y.
	l = NewLinear(geo.Pt(0, 0), math.Pi/2, 36)
	if got := l.At(2000); math.Abs(got.Y-20) > 1e-9 {
		t.Errorf("heading: %v", got)
	}
}

func TestRouteBasics(t *testing.T) {
	r := NewRoute(36, geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(100, 50))
	if r.Length() != 150 {
		t.Errorf("Length = %v", r.Length())
	}
	if r.Duration() != 15000 {
		t.Errorf("Duration = %v", r.Duration())
	}
	if got := r.At(0); got != geo.Pt(0, 0) {
		t.Errorf("At(0) = %v", got)
	}
	// 10 m/s: at 5 s, 50 m along the first segment.
	if got := r.At(5000); math.Abs(got.X-50) > 1e-9 || got.Y != 0 {
		t.Errorf("At(5s) = %v", got)
	}
	// At 12 s, 120 m: 20 m into the second segment.
	if got := r.At(12000); math.Abs(got.X-100) > 1e-9 || math.Abs(got.Y-20) > 1e-9 {
		t.Errorf("At(12s) = %v", got)
	}
	// Past the end: parked at the last waypoint.
	if got := r.At(1e9); got != geo.Pt(100, 50) {
		t.Errorf("At(end) = %v", got)
	}
	// Negative time: start.
	if got := r.At(-5); got != geo.Pt(0, 0) {
		t.Errorf("At(-5) = %v", got)
	}
}

func TestRouteDegenerate(t *testing.T) {
	r := NewRoute(50, geo.Pt(3, 3))
	if r.Length() != 0 || r.At(1000) != geo.Pt(3, 3) {
		t.Error("single-waypoint route should park")
	}
	// Duplicate waypoints are tolerated.
	r = NewRoute(36, geo.Pt(0, 0), geo.Pt(0, 0), geo.Pt(10, 0))
	if got := r.At(500); math.Abs(got.X-5) > 1e-9 {
		t.Errorf("dup waypoint At(0.5s) = %v", got)
	}
	// Zero speed parks at start.
	r = NewRoute(0, geo.Pt(1, 1), geo.Pt(9, 9))
	if r.At(5000) != geo.Pt(1, 1) {
		t.Error("zero speed should park at start")
	}
	if r.Duration() != 0 {
		t.Error("zero-speed duration should be 0")
	}
}

func TestRouteContinuity(t *testing.T) {
	r := NewRoute(60, geo.Pt(0, 0), geo.Pt(500, 300), geo.Pt(200, 900), geo.Pt(-100, 100))
	// Positions at adjacent milliseconds must be within one step of speed.
	const stepMs = 8
	maxStep := KmhToMps(60) * (stepMs / 1000.0) * 1.01
	prev := r.At(0)
	for t1 := int64(stepMs); t1 < r.Duration()+2000; t1 += stepMs {
		cur := r.At(t1)
		if prev.Dist(cur) > maxStep {
			t.Fatalf("discontinuity at %dms: %v -> %v", t1, prev, cur)
		}
		prev = cur
	}
}

func TestRouteMonotoneProgress(t *testing.T) {
	r := NewRoute(72, geo.Pt(0, 0), geo.Pt(1000, 0))
	f := func(a, b uint16) bool {
		t1, t2 := int64(a), int64(b)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return r.At(t1).X <= r.At(t2).X+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
