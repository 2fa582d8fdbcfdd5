// Package mobility provides the movement models behind the paper's
// Type-II drive tests (local driving <50 km/h, highway driving
// 90–120 km/h, §4): static placement, constant-velocity drives and
// waypoint routes — each yielding the UE position at any simulation
// time.
package mobility

import (
	"math"

	"mmlab/internal/geo"
)

// Model yields a position for every millisecond of simulation time.
type Model interface {
	// At returns the position at time t (milliseconds from simulation
	// start). Implementations must be deterministic in t.
	At(tMs int64) geo.Point
}

// KmhToMps converts km/h to m/s.
func KmhToMps(kmh float64) float64 { return kmh / 3.6 }

// Static is a non-moving device.
type Static struct {
	Pos geo.Point
}

// At implements Model.
func (s Static) At(int64) geo.Point { return s.Pos }

// Linear moves at constant velocity from a start point.
type Linear struct {
	Start geo.Point
	// VelX/VelY in meters per second.
	VelX, VelY float64
}

// NewLinear builds a linear drive toward a heading (radians, 0 = +X) at
// speed km/h.
func NewLinear(start geo.Point, headingRad, speedKmh float64) Linear {
	v := KmhToMps(speedKmh)
	return Linear{Start: start, VelX: v * math.Cos(headingRad), VelY: v * math.Sin(headingRad)}
}

// At implements Model.
func (l Linear) At(tMs int64) geo.Point {
	s := float64(tMs) / 1000
	return geo.Pt(l.Start.X+l.VelX*s, l.Start.Y+l.VelY*s)
}

// Route drives through an ordered list of waypoints at a constant speed,
// holding the final position after the last waypoint. It models the
// paper's drive tests along city roads and highways.
type Route struct {
	points   []geo.Point
	cumDist  []float64 // cumulative distance at each waypoint
	speedMps float64
}

// NewRoute builds a route over waypoints at speed km/h. It needs at least
// one waypoint; consecutive duplicates are tolerated.
func NewRoute(speedKmh float64, waypoints ...geo.Point) *Route {
	r := &Route{speedMps: KmhToMps(speedKmh)}
	r.points = append(r.points, waypoints...)
	r.cumDist = make([]float64, len(r.points))
	for i := 1; i < len(r.points); i++ {
		r.cumDist[i] = r.cumDist[i-1] + r.points[i-1].Dist(r.points[i])
	}
	return r
}

// Length returns the total route length in meters.
func (r *Route) Length() float64 {
	if len(r.cumDist) == 0 {
		return 0
	}
	return r.cumDist[len(r.cumDist)-1]
}

// Duration returns the time to complete the route in milliseconds.
func (r *Route) Duration() int64 {
	if r.speedMps <= 0 {
		return 0
	}
	return int64(r.Length() / r.speedMps * 1000)
}

// At implements Model.
func (r *Route) At(tMs int64) geo.Point {
	if len(r.points) == 0 {
		return geo.Pt(0, 0)
	}
	if tMs <= 0 || r.speedMps <= 0 {
		return r.points[0]
	}
	d := r.speedMps * float64(tMs) / 1000
	if d >= r.Length() {
		return r.points[len(r.points)-1]
	}
	// Find the segment containing distance d.
	i := 1
	for ; i < len(r.cumDist); i++ {
		if r.cumDist[i] >= d {
			break
		}
	}
	segLen := r.cumDist[i] - r.cumDist[i-1]
	if segLen == 0 {
		return r.points[i]
	}
	frac := (d - r.cumDist[i-1]) / segLen
	return r.points[i-1].Lerp(r.points[i], frac)
}
