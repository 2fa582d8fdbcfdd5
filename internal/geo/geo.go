// Package geo provides the planar geometry substrate for the cellular
// network simulator: points, distances, hexagonal cell-site lattices,
// rectangular city regions, and neighborhood clustering used by the
// spatial-diversity analysis (paper §5.4.2, Fig. 21).
//
// The simulator uses a local tangent-plane approximation: coordinates are
// planar X/Y in meters within a region, which is accurate at city scale
// (tens of kilometers) and keeps all distance math exact and fast.
package geo

import (
	"fmt"
	"math"
)

// Point is a planar position in meters.
type Point struct {
	X float64
	Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance in meters between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Lerp linearly interpolates between p and q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String renders the point with meter precision.
func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, used for city regions.
type Rect struct {
	Min Point // lower-left corner
	Max Point // upper-right corner
}

// NewRect builds a rectangle from any two opposite corners.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the X extent in meters.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the Y extent in meters.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area in square meters.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of the rectangle.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Expand grows the rectangle by m meters on every side.
func (r Rect) Expand(m float64) Rect {
	return Rect{
		Min: Point{r.Min.X - m, r.Min.Y - m},
		Max: Point{r.Max.X + m, r.Max.Y + m},
	}
}
