package netsim

import (
	"flag"

	"mmlab/internal/geo"
)

// WorldTuning bundles the world-geometry knobs exposed on the CLIs and the
// country-scale benchmark: site density, audibility radius, and arena
// size. The zero value changes nothing, so existing campaigns (and their
// byte-exact outputs) are untouched unless a knob is set.
type WorldTuning struct {
	// ISD overrides the inter-site distance in meters (0: keep default).
	ISD float64
	// MeasureRadius overrides the audibility radius in meters (0: keep
	// default of 4×ISD). Country-density studies typically tighten this —
	// a UE in a dense deployment never hears 50 towers.
	MeasureRadius float64
	// RegionKm sets a square drive arena of the given side in kilometers
	// (0: the caller's standard arena). This is the country-scale lever:
	// cell count grows with area while the indexed hot path stays flat.
	RegionKm float64
}

// RegisterWorldFlags exposes the tuning knobs as -world.* flags on fs and
// returns the destination struct, following the fault.RegisterFlags idiom.
func RegisterWorldFlags(fs *flag.FlagSet) *WorldTuning {
	var t WorldTuning
	fs.Float64Var(&t.ISD, "world.isd", 0, "inter-site distance in meters (0: default 700)")
	fs.Float64Var(&t.MeasureRadius, "world.radius", 0, "UE audibility radius in meters (0: default 4×ISD)")
	fs.Float64Var(&t.RegionKm, "world.region-km", 0, "square drive-arena side in km (0: standard arena)")
	return &t
}

// Apply folds the world-level overrides into opts.
func (t WorldTuning) Apply(opts *WorldOpts) {
	if t.ISD > 0 {
		opts.ISD = t.ISD
	}
	if t.MeasureRadius > 0 {
		opts.MeasureRadius = t.MeasureRadius
	}
}

// Region returns the tuned drive arena, or def when no override is set.
func (t WorldTuning) Region(def geo.Rect) geo.Rect {
	if t.RegionKm <= 0 {
		return def
	}
	side := t.RegionKm * 1000
	return geo.NewRect(geo.Pt(0, 0), geo.Pt(side, side))
}
