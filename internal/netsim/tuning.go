package netsim

import "mmlab/internal/geo"

// WorldTuning sizes a campaign's drive arena. The zero value changes
// nothing, so existing campaigns (and their byte-exact outputs) are
// untouched unless RegionKm is set.
type WorldTuning struct {
	// RegionKm sets a square drive arena of the given side in kilometers
	// (0: the caller's standard arena). This is the country-scale lever:
	// cell count grows with area while the indexed hot path stays flat.
	RegionKm float64
}

// Region returns the tuned drive arena, or def when no override is set.
func (t WorldTuning) Region(def geo.Rect) geo.Rect {
	if t.RegionKm <= 0 {
		return def
	}
	side := t.RegionKm * 1000
	return geo.NewRect(geo.Pt(0, 0), geo.Pt(side, side))
}
