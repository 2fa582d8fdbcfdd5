package netsim

import (
	"math"

	"mmlab/internal/geo"
	"mmlab/internal/mobility"
)

// RowRoute builds a straight drive route that passes along a row of cell
// sites (drive-test roads run past towers; a route far from every site
// never develops the large RSRP differentials that high-offset events
// need). laneOffset shifts the road sideways from the tower row in meters.
func RowRoute(w *World, speedKmh float64, laneOffset float64) *mobility.Route {
	y := w.Region.Center().Y
	// Find the site row nearest the region's vertical center.
	best := math.Inf(1)
	for _, c := range w.Cells {
		if d := math.Abs(c.Site.Pos.Y - y); d < best {
			best = d
			y = c.Site.Pos.Y
		}
	}
	y += laneOffset
	margin := w.Region.Width() * 0.03
	return mobility.NewRoute(speedKmh,
		geo.Pt(w.Region.Min.X+margin, y),
		geo.Pt(w.Region.Max.X-margin, y))
}
