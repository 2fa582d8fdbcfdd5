package netsim

import (
	"math"
	"testing"

	"mmlab/internal/traffic"
	"mmlab/internal/units"
)

func TestRowRoutePassesSites(t *testing.T) {
	w := testWorld(t, "A", WorldOpts{LTELayers: 1})
	route := RowRoute(w, 50, 0)
	if route.Length() < w.Region.Width()*0.8 {
		t.Errorf("route length %.0f too short for region width %.0f", route.Length(), w.Region.Width())
	}
	// The route's y must coincide with some site row.
	y := route.At(0).Y
	best := math.Inf(1)
	for _, c := range w.Cells {
		if d := math.Abs(c.Site.Pos.Y - y); d < best {
			best = d
		}
	}
	if best > 1 {
		t.Errorf("route %.1f m off the nearest site row", best)
	}
	// Lane offset shifts the road.
	lane := RowRoute(w, 50, 120)
	if math.Abs(lane.At(0).Y-y-120) > 1e-6 {
		t.Errorf("lane offset not applied: %v vs %v", lane.At(0).Y, y)
	}
}

func TestRSRQInWorldSpansPaperRange(t *testing.T) {
	// The physical RSRQ model must exercise the paper's threshold range:
	// strong isolated positions near −3, contested borders well below −10.
	w := testWorld(t, "A", WorldOpts{LTELayers: 1})
	route := RowRoute(w, 50, 40)
	res := RunDrive(w, route, route.Duration(), UEOpts{Seed: 2, Active: true, App: traffic.Speedtest{}})
	lo, hi := units.Db(0), units.Db(-30)
	for _, h := range res.Handoffs {
		if h.RSRQOld < lo {
			lo = h.RSRQOld
		}
		if h.RSRQOld > hi {
			hi = h.RSRQOld
		}
	}
	if len(res.Handoffs) == 0 {
		t.Skip("no handoffs")
	}
	if lo > -8 {
		t.Errorf("min RSRQ at handoffs = %v, want clearly degraded values", lo)
	}
	if hi > -3 || hi < -19.5 {
		t.Errorf("max RSRQ out of range: %v", hi)
	}
}
