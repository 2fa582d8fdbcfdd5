package netsim

import (
	"sort"
	"testing"

	"mmlab/internal/carrier"
	"mmlab/internal/config"
	"mmlab/internal/geo"
	"mmlab/internal/radio"
	"mmlab/internal/rng"
)

// scanAudible is the test-local reference for audibility: a linear
// geo.WithinRadius over every cell site, scored with RSRPAt and sorted by
// (RSRP desc, CellID asc).
func scanAudible(w *World, pos geo.Point) []AudibleCell {
	sites := make([]geo.Point, len(w.Cells))
	for i, c := range w.Cells {
		sites[i] = c.Site.Pos
	}
	var out []AudibleCell
	for _, i := range geo.WithinRadius(pos, sites, w.measureRadius) {
		c := w.Cells[i]
		out = append(out, AudibleCell{c, w.RSRPAt(c, pos)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RSRP != out[j].RSRP {
			return out[i].RSRP > out[j].RSRP
		}
		return out[i].Cell.Site.Identity.CellID < out[j].Cell.Site.Identity.CellID
	})
	return out
}

// TestAudibleGridMatchesLinear is the property test for the spatial
// index: across world shapes and randomized positions (inside the region,
// at its edges, and beyond it), the indexed AudibleScored must return the
// identical cells and RSRPs, in the identical order, as a linear scan.
func TestAudibleGridMatchesLinear(t *testing.T) {
	shapes := []WorldOpts{
		{LTELayers: 3},
		{LTELayers: 1, ISD: 500},
		{LTELayers: 2, IncludeNonLTE: true, MeasureRadius: 1200},
		{LTELayers: 3, Seed: 9, MeasureRadius: 5600},
	}
	for _, shape := range shapes {
		w := testWorld(t, "A", shape)
		rng := rng.New(17)
		probe := w.NewProbe()
		for q := 0; q < 150; q++ {
			pos := geo.Pt(-2000+rng.Float64()*10000, -2000+rng.Float64()*8000)
			got := probe.AudibleScored(pos)
			want := scanAudible(w, pos)
			if len(got) != len(want) {
				t.Fatalf("shape %+v pos %v: %d audible via index, %d via scan",
					shape, pos, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shape %+v pos %v: rank %d: index says %v @ %v, scan says %v @ %v",
						shape, pos, i, got[i].Cell.Site.Identity, got[i].RSRP,
						want[i].Cell.Site.Identity, want[i].RSRP)
				}
			}
		}
	}
}

// TestAudibleScoredTieBreak pins the CellID tie-break: with two
// co-channel cells at exactly equal RSRP (same shadow field, symmetric
// positions), the lower CellID must rank first regardless of slice order.
func TestAudibleScoredTieBreak(t *testing.T) {
	sh := radio.NewShadowField(1, 0, 60) // sigma 0: shadowing exactly zero
	cfg := &config.CellConfig{TxPowerDBm: 46}
	mk := func(id uint32, pos geo.Point) *Cell {
		return &Cell{
			Site:    carrierSite(id, pos),
			Config:  cfg,
			FreqMHz: 1960,
			Shadow:  sh,
			Load:    0.5,
		}
	}
	serving := mk(1, geo.Pt(0, 900))
	lo := mk(2, geo.Pt(-400, 0))
	hi := mk(3, geo.Pt(400, 0)) // mirror image of lo about the query point
	pos := geo.Pt(0, 0)
	for name, cells := range map[string][]*Cell{
		"ascending":  {serving, lo, hi},
		"descending": {serving, hi, lo},
	} {
		sites := make([]geo.Point, len(cells))
		for i, c := range cells {
			sites[i] = c.Site.Pos
		}
		w := &World{
			Cells:         cells,
			byID:          map[uint32]*Cell{1: serving, 2: lo, 3: hi},
			measureRadius: 5000,
			index:         geo.NewGridIndex(sites, 2500),
		}
		if rLo, rHi := w.RSRPAt(lo, pos), w.RSRPAt(hi, pos); rLo != rHi {
			t.Fatalf("setup: tie not exact (%v vs %v)", rLo, rHi)
		}
		var got []uint32
		for _, a := range w.NewProbe().AudibleScored(pos) {
			got = append(got, a.Cell.Site.Identity.CellID)
		}
		if len(got) != 3 || got[0] != 2 || got[1] != 3 {
			t.Fatalf("%s: ranked %v, want CellID 2 then 3 first", name, got)
		}
	}
}

// carrierSite builds a minimal co-channel LTE site for synthetic worlds.
func carrierSite(id uint32, pos geo.Point) carrier.CellSite {
	return carrier.CellSite{
		Carrier: "A",
		City:    "C3",
		Pos:     pos,
		Identity: config.CellIdentity{
			CellID: id, PCI: uint16(id), EARFCN: 700, RAT: config.RATLTE,
		},
	}
}
