package geo

import "math"

// HexLattice generates cell-site positions on a hexagonal lattice with the
// given inter-site distance (ISD), covering region r. Real macro deployments
// approximate hex grids; the paper's carriers deploy "many overlapping cells
// across geographic areas" (§2) and we reproduce that with one lattice per
// frequency layer, offset per layer so layers do not sit exactly on top of
// each other.
//
// The lattice uses "pointy-top" rows: adjacent rows are offset horizontally
// by ISD/2 and vertically by ISD*sqrt(3)/2.
func HexLattice(r Rect, isd float64, offset Point) []Point {
	if isd <= 0 {
		return nil
	}
	rowStep := isd * math.Sqrt(3) / 2
	// Over-cover by one ISD so cells just outside the region still serve
	// its edges, as real neighbors would.
	ext := r.Expand(isd)
	var pts []Point
	row := 0
	for y := ext.Min.Y + mod(offset.Y, rowStep); y <= ext.Max.Y; y += rowStep {
		xoff := mod(offset.X, isd)
		if row%2 == 1 {
			xoff += isd / 2
		}
		for x := ext.Min.X + mod(xoff, isd); x <= ext.Max.X; x += isd {
			pts = append(pts, Point{x, y})
		}
		row++
	}
	return pts
}

// mod is a non-negative floating-point modulus.
func mod(a, b float64) float64 {
	m := math.Mod(a, b)
	if m < 0 {
		m += b
	}
	return m
}

// WithinRadius returns the indices of sites within radius meters of center.
// It is the clustering primitive behind the spatial-diversity measure
// ζ_{M,θ|R} (paper Eq. 5 applied per neighborhood, Fig. 21).
func WithinRadius(center Point, sites []Point, radius float64) []int {
	var out []int
	for i, s := range sites {
		if center.Dist(s) <= radius {
			out = append(out, i)
		}
	}
	return out
}
