// Package netsim is the discrete-time system simulator that binds the
// substrates together: carrier-generated cell deployments, the radio
// model, the UE-side handoff engine, network-side decisions, traffic
// apps, and diag-log emission. It produces the paper's two datasets —
// handoff instances (D1) from drive runs and configuration crawls (D2)
// via the crawler package reading the diag bytes this package writes.
package netsim

import (
	"slices"
	"sort"

	"mmlab/internal/carrier"
	"mmlab/internal/config"
	"mmlab/internal/geo"
	"mmlab/internal/radio"
	"mmlab/internal/units"
)

// Cell is one deployed cell instantiated with radio state.
type Cell struct {
	Site    carrier.CellSite
	Config  *config.CellConfig
	FreqMHz units.MegaHz
	Shadow  *radio.ShadowField
	Load    float64 // downlink activity factor in [0,1]
	// ch indexes the cell's (EARFCN, RAT) channel among the world's
	// channels, for per-channel interference sums.
	ch int
}

// World is a drive-test arena: one carrier's cells in one region.
type World struct {
	Region geo.Rect
	Cells  []*Cell
	byID   map[uint32]*Cell

	// channels is the number of distinct (EARFCN, RAT) channels; every
	// Cell.ch is below it.
	channels      int
	measureRadius float64
	// index answers every audibility query. Immutable after BuildWorld, so
	// concurrent drive runs can share it.
	index *geo.GridIndex
}

// WorldOpts controls world construction.
type WorldOpts struct {
	Seed int64
	// LTELayers is how many LTE channel layers to deploy (top deployment
	// weights first). Default 3.
	LTELayers int
	// ISD is the inter-site distance per layer in meters. Default 700.
	ISD float64
	// IncludeNonLTE adds one layer per non-LTE RAT of the carrier.
	IncludeNonLTE bool
	// City tags the sites (affects city-scoped configuration draws).
	City string
	// MeasureRadius bounds which cells a UE can hear, in meters. Default
	// 4×ISD.
	MeasureRadius float64
}

func (o *WorldOpts) fill() {
	if o.LTELayers == 0 {
		o.LTELayers = 3
	}
	if o.ISD == 0 {
		o.ISD = 700
	}
	if o.City == "" {
		o.City = "C3"
	}
	if o.MeasureRadius == 0 {
		o.MeasureRadius = 4 * o.ISD
	}
}

// Every cell's shadowing field: standard deviation in dB and
// decorrelation distance in meters.
const (
	shadowSigmaDB  = 6
	shadowCorrDist = 60
)

// BuildWorld deploys the carrier's top channel layers over the region,
// with the carrier's epoch-0 configurations.
func BuildWorld(gen *carrier.Generator, region geo.Rect, opts WorldOpts) *World {
	opts.fill()
	w := &World{
		Region: region,
		byID:   make(map[uint32]*Cell),
	}

	type layer struct {
		earfcn uint32
		rat    config.RAT
	}
	var layers []layer
	lte := append([]carrier.ChannelUse(nil), gen.Plan.Channels[config.RATLTE]...)
	sort.Slice(lte, func(i, j int) bool {
		if lte[i].Weight != lte[j].Weight {
			return lte[i].Weight > lte[j].Weight
		}
		return lte[i].EARFCN < lte[j].EARFCN
	})
	for i := 0; i < opts.LTELayers && i < len(lte); i++ {
		layers = append(layers, layer{lte[i].EARFCN, config.RATLTE})
	}
	if opts.IncludeNonLTE {
		for _, rat := range gen.Carrier.RATs {
			if rat == config.RATLTE {
				continue
			}
			chans := gen.Plan.Channels[rat]
			if len(chans) == 0 {
				continue
			}
			best := chans[0]
			for _, cu := range chans[1:] {
				if cu.Weight > best.Weight {
					best = cu
				}
			}
			layers = append(layers, layer{best.EARFCN, rat})
		}
	}

	chans := map[layer]int{}
	id := uint32(1)
	for li, ly := range layers {
		ch, ok := chans[ly]
		if !ok {
			ch = len(chans)
			chans[ly] = ch
		}
		off := geo.Pt(float64(li)*opts.ISD/3.1, float64(li)*opts.ISD/4.7)
		for _, p := range geo.HexLattice(region, opts.ISD, off) {
			site := carrier.CellSite{
				Carrier: gen.Carrier.Acronym,
				City:    opts.City,
				Pos:     p,
				Identity: config.CellIdentity{
					CellID: id,
					PCI:    uint16(id % 504),
					EARFCN: ly.earfcn,
					RAT:    ly.rat,
				},
			}
			cell := &Cell{
				Site:    site,
				Config:  gen.Config(site, 0),
				FreqMHz: carrier.FreqMHz(ly.rat, ly.earfcn),
				Shadow: radio.NewShadowField(
					opts.Seed^int64(uint64(id)*0x9E3779B97F4A7C15),
					shadowSigmaDB, shadowCorrDist),
				Load: 0.2 + 0.6*hashFrac(opts.Seed, id),
				ch:   ch,
			}
			w.Cells = append(w.Cells, cell)
			w.byID[id] = cell
			id++
		}
	}
	w.channels = len(chans)
	w.measureRadius = opts.MeasureRadius
	pos := make([]geo.Point, len(w.Cells))
	for i, c := range w.Cells {
		pos[i] = c.Site.Pos
	}
	// Bucket side of half the query radius: a lookup touches at most a
	// 5×5 bucket block and over-fetches roughly 2× the in-radius set.
	w.index = geo.NewGridIndex(pos, opts.MeasureRadius/2)
	return w
}

// CellByID finds a cell by identifier.
func (w *World) CellByID(id uint32) (*Cell, bool) {
	c, ok := w.byID[id]
	return c, ok
}

// hashFrac maps (seed, id) to a stable fraction in [0,1).
func hashFrac(seed int64, id uint32) float64 {
	x := uint64(seed) ^ uint64(id)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return float64(x%1e9) / 1e9
}

// RSRPAt computes a cell's RSRP at a position (path loss + shadowing, no
// fast fading — the caller adds per-UE fading).
func (w *World) RSRPAt(c *Cell, pos geo.Point) units.Dbm {
	d := units.Meters(pos.Dist(c.Site.Pos))
	return radio.RSRPAt(c.Config.TxPowerDBm, d, c.FreqMHz, c.Shadow.At(pos.X, pos.Y))
}

// AudibleCell is one audibility-query result: a cell plus its
// deterministic RSRP (path loss + shadowing, no per-UE fading) at the
// query position, so callers never compute the same RSRP twice.
type AudibleCell struct {
	Cell *Cell
	RSRP units.Dbm
}

// Probe is a reusable audibility-query context. It owns the scratch
// buffers a query needs, so the per-tick hot path allocates nothing. A
// Probe is not safe for concurrent use; each UE (or goroutine) takes its
// own via NewProbe, while the underlying World and index stay shared.
type Probe struct {
	w      *World
	idx    []int32
	scored []AudibleCell
}

// NewProbe returns a fresh query context for this world.
func (w *World) NewProbe() *Probe { return &Probe{w: w} }

// AudibleScored returns the cells within measurement radius of pos with
// their deterministic RSRP, strongest first (ties broken by ascending
// CellID). The returned slice is the probe's scratch buffer: valid until
// the next call on the same probe.
func (p *Probe) AudibleScored(pos geo.Point) []AudibleCell {
	w := p.w
	p.scored = p.scored[:0]
	p.idx = w.index.WithinRadius(pos, w.measureRadius, p.idx)
	for _, i := range p.idx {
		c := w.Cells[i]
		p.scored = append(p.scored, AudibleCell{c, w.RSRPAt(c, pos)})
	}
	// The comparator is a strict total order (CellID is unique), so the
	// sorted sequence is unique and independent of the sort algorithm.
	slices.SortFunc(p.scored, func(a, b AudibleCell) int {
		switch {
		case a.RSRP > b.RSRP:
			return -1
		case a.RSRP < b.RSRP:
			return 1
		case a.Cell.Site.Identity.CellID < b.Cell.Site.Identity.CellID:
			return -1
		default:
			return 1
		}
	})
	return p.scored
}

// StrongestLTE returns the best audible LTE cell at pos, or nil.
func (w *World) StrongestLTE(pos geo.Point) *Cell {
	for _, s := range w.NewProbe().AudibleScored(pos) {
		if s.Cell.Site.Identity.RAT == config.RATLTE {
			return s.Cell
		}
	}
	return nil
}
