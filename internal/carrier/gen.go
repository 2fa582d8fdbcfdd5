package carrier

import (
	"fmt"
	"math"
	"sort"

	"mmlab/internal/config"
	"mmlab/internal/geo"
	"mmlab/internal/rng"
	"mmlab/internal/units"
)

// CellSite places one cell in the world: who operates it, where it is, and
// its identity (RAT + channel + IDs).
type CellSite struct {
	Carrier  string // carrier acronym
	City     string // region code: "C1".."C5" for US cities, country code elsewhere
	Pos      geo.Point
	Identity config.CellIdentity
}

// Generator produces deterministic cell configurations for one carrier:
// the same (site, epoch) always yields the same CellConfig, and the value
// distributions across a carrier's cells realize its PolicyProfile.
type Generator struct {
	Carrier Carrier
	Plan    BandPlan
	Profile PolicyProfile
}

// NewGenerator builds the generator for a carrier acronym.
func NewGenerator(acronym string) (*Generator, error) {
	c, ok := ByAcronym(acronym)
	if !ok {
		return nil, fmt.Errorf("carrier: unknown acronym %q", acronym)
	}
	return &Generator{Carrier: c, Plan: PlanFor(c), Profile: ProfileFor(c)}, nil
}

// tileKey buckets a position into the 5 km grid used by ScopeTile.
func tileKey(p geo.Point) string {
	const tile = 5000.0
	return fmt.Sprintf("%d:%d", int(math.Floor(p.X/tile)), int(math.Floor(p.Y/tile)))
}

// updater reports whether a cell re-draws its parameters of the given
// class ("idle" or "active") at later epochs. The bit is per (cell, class)
// — a cell is reconfigured as a whole, matching Fig. 13b where idle- and
// active-state parameter updates have distinct, low rates.
func (g *Generator) updater(cellID uint32, class string, rate float64) bool {
	if rate <= 0 {
		return false
	}
	return rng.New(seedWith(g.Carrier.Acronym+"|upd|"+class, uint64(cellID))).Float64() < rate
}

// draw picks a value for param at this site, honoring the policy's scope
// and the temporal-update model: updater cells redraw the parameter at
// each epoch; all others keep their value forever (Fig. 13b's low temporal
// dynamics).
func (g *Generator) draw(param string, pp ParamPolicy, site CellSite, epoch int, class string, rate float64) float64 {
	parts := []string{g.Carrier.Acronym, param}
	if pp.Scope&ScopeCity != 0 {
		parts = append(parts, "city", site.City)
	}
	if pp.Scope&ScopeTile != 0 {
		parts = append(parts, "tile", tileKey(site.Pos))
	}
	if pp.Scope&ScopeChannel != 0 {
		parts = append(parts, "chan", fmt.Sprint(site.Identity.EARFCN))
	}
	if pp.Scope&ScopeCell != 0 {
		parts = append(parts, "cell", fmt.Sprint(site.Identity.CellID))
	}
	seed := seedFor(parts...)
	if epoch > 0 && g.updater(site.Identity.CellID, class, rate) {
		seed = seedWith(fmt.Sprint(seed), uint64(epoch))
	}
	return pp.Pool.Pick(rng.New(seed))
}

// priorityFor draws the reselection priority of a channel as seen from a
// site. Priority policy is per-channel (Fig. 18); per-cell scope bits allow
// the paper's observed inconsistencies ("6.3% of AT&T cells" on
// multi-valued channels, §5.4.1).
func (g *Generator) priorityFor(site CellSite, earfcn uint32, rat config.RAT, epoch int) int {
	if rat != config.RATLTE {
		if pool, ok := g.Profile.RATPriority[rat]; ok {
			return config.ClampPriority(int(pool.Pick(rng.New(seedFor(g.Carrier.Acronym, "ratprio", rat.String())))))
		}
		return 1
	}
	pool, ok := g.Profile.PriorityByChannel[earfcn]
	if !ok {
		pool = g.Profile.PriorityDefault
	}
	parts := []string{g.Carrier.Acronym, "priority"}
	// Carriers without a per-channel plan assign ONE priority to all their
	// LTE carriers in an area (T-Mobile's market-uniform planning): the
	// channel stays out of the seed so every channel agrees.
	if len(g.Profile.PriorityByChannel) > 0 || g.Profile.PriorityScope&ScopeChannel != 0 {
		parts = append(parts, "chan", fmt.Sprint(earfcn))
	}
	if g.Profile.PriorityScope&ScopeCity != 0 {
		parts = append(parts, "city", site.City)
	}
	if g.Profile.PriorityScope&ScopeTile != 0 {
		parts = append(parts, "tile", tileKey(site.Pos))
	}
	if g.Profile.PriorityScope&ScopeCell != 0 {
		parts = append(parts, "cell", fmt.Sprint(site.Identity.CellID))
	}
	v := int(pool.Pick(rng.New(seedFor(parts...))))
	// City-variant shift: the paper's Chicago distributions differ
	// visibly from other cities (Fig. 20). Only a subset of channels is
	// re-planned there, so per-channel dominance over the whole dataset
	// survives (Fig. 18's ~6 % multi-value cells).
	if g.Profile.CityVariantCity != "" && site.City == g.Profile.CityVariantCity {
		shift := rng.New(seedFor(g.Carrier.Acronym, "cityvariant", fmt.Sprint(earfcn)))
		if shift.Float64() < 0.25 {
			v++
			if v > 6 {
				v = 2
			}
		}
	}
	return config.ClampPriority(v)
}

// legacyRAT reports whether a RAT carries the paper's near-static
// configuration style ("Most of the parameters [of EVDO/CDMA/GSM] are
// observed to have a single dominant value and relatively static
// configurations", §5.5).
func legacyRAT(r config.RAT) bool {
	return r == config.RATGSM || r == config.RATEVDO || r == config.RATCDMA1x
}

// legacyDraw pins a parameter to a single per-carrier value with a rare
// (3 %) per-cell deviation to the adjacent pool option.
func (g *Generator) legacyDraw(param string, pp ParamPolicy, site CellSite) float64 {
	base := pp.Pool.Pick(rng.New(seedFor(g.Carrier.Acronym, param, "legacy")))
	dev := rng.New(seedFor(g.Carrier.Acronym, param, "legacydev", fmt.Sprint(site.Identity.CellID)))
	if !pp.Pool.IsSingle() && dev.Float64() < 0.03 {
		return pp.Pool.Pick(dev)
	}
	return base
}

// servingConfig draws the idle-state serving block.
func (g *Generator) servingConfig(site CellSite, epoch int) config.ServingCellConfig {
	p := g.Profile
	idle := p.IdleUpdateRate
	if legacyRAT(site.Identity.RAT) {
		return g.legacyServing(site)
	}
	s := config.ServingCellConfig{
		Priority:         g.priorityFor(site, site.Identity.EARFCN, site.Identity.RAT, epoch),
		QHyst:            config.QuantizeQHyst(units.Db(g.draw("qHyst", p.QHyst, site, epoch, "idle", idle))),
		SIntraSearch:     config.QuantizeSearchThresh(units.Db(g.draw("sIntra", p.IntraSearch, site, epoch, "idle", idle))),
		SNonIntraSearch:  config.QuantizeSearchThresh(units.Db(g.draw("sNonIntra", p.NonIntraSearch, site, epoch, "idle", idle))),
		QRxLevMin:        config.QuantizeRxLevMin(units.Dbm(g.draw("deltaMin", p.DeltaMin, site, epoch, "idle", idle))),
		QQualMin:         config.QuantizeEventRSRQThreshold(units.Db(g.draw("qQualMin", p.QQualMin, site, epoch, "idle", idle))),
		ThreshServingLow: config.QuantizeSearchThresh(units.Db(g.draw("threshServLow", p.ThreshServLow, site, epoch, "idle", idle))),
		TReselectionSec:  config.ClampTReselection(int(g.draw("tResel", p.TResel, site, epoch, "idle", idle))),
		THigherMeasSec:   int(g.draw("tHigherMeas", p.THigherMeas, site, epoch, "idle", 0)),
	}
	// RSRQ legs scale off the RSRP legs (coarser, small range).
	s.SIntraSearchQ = config.QuantizeSearchThresh(units.Db(math.Min(s.SIntraSearch.V()/4, 14)))
	s.SNonIntraSearchQ = config.QuantizeSearchThresh(units.Db(math.Min(s.SNonIntraSearch.V()/4, 12)))
	s.ThreshServingLowQ = config.QuantizeSearchThresh(units.Db(math.Min(s.ThreshServingLow.V()/2, 8)))

	// LTE cells broadcast the speed-scaling block with carrier-wide single
	// values — the paper's Fig. 16 shows these among the single-valued /
	// dominated front group.
	if site.Identity.RAT == config.RATLTE {
		s.SpeedScaling = config.SpeedScaling{
			Enabled:              true,
			NCellChangeMedium:    6,
			NCellChangeHigh:      10,
			TEvaluationSec:       60,
			THystNormalSec:       60,
			TReselectionSFMedium: 0.75,
			TReselectionSFHigh:   0.5,
			QHystSFMedium:        units.Db(-2),
			QHystSFHigh:          units.Db(-4),
		}
	}

	// Normal carriers keep Θintra ≥ Θnonintra (the efficient ordering,
	// Fig. 11 left). Two carriers exhibit the paper's rare counterexample
	// in specific areas (§4.2: "only observed from two carriers in
	// specific areas").
	if s.SNonIntraSearch > s.SIntraSearch {
		if g.anomalousArea(site) {
			// keep the inversion
		} else {
			s.SNonIntraSearch = s.SIntraSearch
		}
	} else if g.anomalousArea(site) {
		s.SIntraSearch, s.SNonIntraSearch = s.SNonIntraSearch, s.SIntraSearch
	}
	return s
}

// legacyServing builds the near-static serving block of a 2G/EVDO cell.
func (g *Generator) legacyServing(site CellSite) config.ServingCellConfig {
	p := g.Profile
	s := config.ServingCellConfig{
		Priority:         g.priorityFor(site, site.Identity.EARFCN, site.Identity.RAT, 0),
		QHyst:            config.QuantizeQHyst(units.Db(g.legacyDraw("qHyst", p.QHyst, site))),
		SIntraSearch:     config.QuantizeSearchThresh(units.Db(g.legacyDraw("sIntra", p.IntraSearch, site))),
		SNonIntraSearch:  config.QuantizeSearchThresh(units.Db(g.legacyDraw("sNonIntra", p.NonIntraSearch, site))),
		QRxLevMin:        config.QuantizeRxLevMin(units.Dbm(g.legacyDraw("deltaMin", p.DeltaMin, site))),
		QQualMin:         config.QuantizeEventRSRQThreshold(units.Db(g.legacyDraw("qQualMin", p.QQualMin, site))),
		ThreshServingLow: config.QuantizeSearchThresh(units.Db(g.legacyDraw("threshServLow", p.ThreshServLow, site))),
		TReselectionSec:  config.ClampTReselection(int(g.legacyDraw("tResel", p.TResel, site))),
		THigherMeasSec:   60,
	}
	s.SIntraSearchQ = config.QuantizeSearchThresh(units.Db(math.Min(s.SIntraSearch.V()/4, 14)))
	s.SNonIntraSearchQ = config.QuantizeSearchThresh(units.Db(math.Min(s.SNonIntraSearch.V()/4, 12)))
	s.ThreshServingLowQ = config.QuantizeSearchThresh(units.Db(math.Min(s.ThreshServingLow.V()/2, 8)))
	if s.SNonIntraSearch > s.SIntraSearch {
		s.SNonIntraSearch = s.SIntraSearch
	}
	return s
}

// anomalousArea marks the rare tiles where CU and TH invert the
// measurement-threshold ordering.
func (g *Generator) anomalousArea(site CellSite) bool {
	if g.Carrier.Acronym != "CU" && g.Carrier.Acronym != "TH" {
		return false
	}
	rng := rng.New(seedFor(g.Carrier.Acronym, "anomaly", tileKey(site.Pos)))
	return rng.Float64() < 0.02
}

// neighborChannels picks which other channels this cell advertises in
// SIB5/6/7/8: up to three same-RAT channels by deployment weight plus one
// channel per other RAT the carrier runs.
func (g *Generator) neighborChannels(site CellSite) []config.CellIdentity {
	var out []config.CellIdentity
	same := append([]ChannelUse(nil), g.Plan.channelsFor(site.Identity.RAT)...)
	sort.Slice(same, func(i, j int) bool {
		if same[i].Weight != same[j].Weight {
			return same[i].Weight > same[j].Weight
		}
		return same[i].EARFCN < same[j].EARFCN
	})
	n := 0
	for _, cu := range same {
		if cu.EARFCN == site.Identity.EARFCN {
			continue
		}
		out = append(out, config.CellIdentity{EARFCN: cu.EARFCN, RAT: site.Identity.RAT})
		if n++; n >= 3 {
			break
		}
	}
	for _, rat := range g.Carrier.RATs {
		if rat == site.Identity.RAT {
			continue
		}
		chans := g.Plan.channelsFor(rat)
		if len(chans) == 0 {
			continue
		}
		best := chans[0]
		for _, cu := range chans[1:] {
			if cu.Weight > best.Weight {
				best = cu
			}
		}
		out = append(out, config.CellIdentity{EARFCN: best.EARFCN, RAT: rat})
	}
	return out
}

// freqRelations draws the SIB5/6/7/8 entries.
func (g *Generator) freqRelations(site CellSite, epoch int) []config.FreqRelation {
	p := g.Profile
	idle := p.IdleUpdateRate
	var out []config.FreqRelation
	for _, nb := range g.neighborChannels(site) {
		fsite := site
		fsite.Identity.EARFCN = nb.EARFCN // channel-scoped draws key on the target channel
		fr := config.FreqRelation{
			EARFCN:           nb.EARFCN,
			RAT:              nb.RAT,
			Priority:         g.priorityFor(site, nb.EARFCN, nb.RAT, epoch),
			ThreshHigh:       config.QuantizeSearchThresh(units.Db(g.draw("threshXHigh", p.ThreshXHigh, fsite, epoch, "idle", idle))),
			ThreshLow:        config.QuantizeSearchThresh(units.Db(g.draw("threshXLow", p.ThreshXLow, fsite, epoch, "idle", idle))),
			QRxLevMin:        config.QuantizeRxLevMin(units.Dbm(g.draw("deltaMin", p.DeltaMin, fsite, epoch, "idle", idle) - 2)),
			QOffsetFreq:      config.QuantizeOffset(units.Db(g.draw("qOffsetFreq", p.QOffsetFreq, fsite, epoch, "idle", idle))),
			TReselectionSec:  config.ClampTReselection(int(g.draw("tResel", p.TResel, fsite, epoch, "idle", idle))),
			MeasBandwidthRBs: 50,
		}
		out = append(out, fr)
	}
	return out
}

// PrimaryEvent draws which reporting event is this cell's handoff policy,
// realizing the carrier's event mix (Fig. 5).
func (g *Generator) PrimaryEvent(site CellSite, epoch int) config.EventType {
	order := []config.EventType{
		config.EventA3, config.EventA5, config.EventPeriodic,
		config.EventA2, config.EventA1, config.EventA4,
	}
	seed := seedFor(g.Carrier.Acronym, "primaryEvent", "cell", fmt.Sprint(site.Identity.CellID))
	if epoch > 0 && g.updater(site.Identity.CellID, "active", g.Profile.ActiveUpdateRate) {
		seed = seedWith(fmt.Sprint(seed), uint64(epoch))
	}
	rng := rng.New(seed)
	total := 0.0
	for _, e := range order {
		total += g.Profile.EventMix[e]
	}
	x := rng.Float64() * total
	acc := 0.0
	for _, e := range order {
		acc += g.Profile.EventMix[e]
		if x < acc {
			return e
		}
	}
	return config.EventA3
}

// measConfig draws the active-state configuration: an A2 measurement gate
// plus the cell's primary handoff event, over measurement objects for the
// serving and advertised neighbor channels.
func (g *Generator) measConfig(site CellSite, epoch int) config.MeasConfig {
	p := g.Profile
	act := p.ActiveUpdateRate
	mc := config.MeasConfig{
		Objects: map[int]config.MeasObject{},
		Reports: map[int]config.EventConfig{},
		FilterK: int(g.draw("filterK", p.FilterK, site, epoch, "active", 0)),
	}
	mc.Objects[1] = config.MeasObject{EARFCN: site.Identity.EARFCN, RAT: site.Identity.RAT}
	objID := 2
	for _, nb := range g.neighborChannels(site) {
		if nb.RAT != config.RATLTE {
			continue // D1 studies 4G→4G active handoffs only
		}
		mc.Objects[objID] = config.MeasObject{EARFCN: nb.EARFCN, RAT: nb.RAT}
		objID++
	}

	ttt := units.Millis(config.NearestTimeToTrigger(int(g.draw("ttt", p.TTT, site, epoch, "active", act))))
	repInt := units.Millis(g.draw("reportInterval", p.ReportInterval, site, epoch, "active", act))
	if !config.ValidReportInterval(repInt) {
		repInt = 240
	}

	// Report 1: the A2 gate every cell configures (the paper observes
	// "one or multiple A2/A5/P events" before the decisive one).
	mc.Reports[1] = config.EventConfig{
		Type: config.EventA2, Quantity: config.RSRP,
		Threshold1:      config.QuantizeEventRSRPThreshold(units.Dbm(g.draw("a2Thresh", p.A2Thresh, site, epoch, "active", act))),
		Hysteresis:      units.Db(1),
		TimeToTriggerMs: units.Millis(320), ReportIntervalMs: repInt, MaxReportCells: 4,
	}

	// Report 2: the primary handoff event.
	primary := g.PrimaryEvent(site, epoch)
	ev := config.EventConfig{
		Type: primary, Quantity: config.RSRP,
		TimeToTriggerMs: ttt, ReportIntervalMs: repInt, MaxReportCells: 4,
	}
	switch primary {
	case config.EventA3:
		ev.Offset = config.QuantizeOffset(units.Db(g.draw("a3Offset", p.A3Offset, site, epoch, "active", act)))
		ev.Hysteresis = config.QuantizeHysteresis(units.Db(g.draw("a3Hyst", p.A3Hyst, site, epoch, "active", act)))
	case config.EventA5:
		useRSRQ := rng.New(seedFor(g.Carrier.Acronym, "a5quant", "cell", fmt.Sprint(site.Identity.CellID))).Float64() < p.A5RSRQShare
		if useRSRQ {
			ev.Quantity = config.RSRQ
			ev.Threshold1 = units.LevelFromDb(config.QuantizeEventRSRQThreshold(units.Db(g.draw("a5t1q", p.A5T1RSRQ, site, epoch, "active", act))))
			ev.Threshold2 = units.LevelFromDb(config.QuantizeEventRSRQThreshold(units.Db(g.draw("a5t2q", p.A5T2RSRQ, site, epoch, "active", act))))
		} else {
			ev.Threshold1 = config.QuantizeEventRSRPThreshold(units.Dbm(g.draw("a5t1p", p.A5T1RSRP, site, epoch, "active", act)))
			ev.Threshold2 = config.QuantizeEventRSRPThreshold(units.Dbm(g.draw("a5t2p", p.A5T2RSRP, site, epoch, "active", act)))
		}
		ev.Hysteresis = 1
	case config.EventPeriodic:
		ev.ReportIntervalMs = units.Millis(g.draw("periodicInt", p.PeriodicInt, site, epoch, "active", act))
		ev.TimeToTriggerMs = 0
	case config.EventA1:
		ev.Threshold1 = config.QuantizeEventRSRPThreshold(units.Dbm(-85))
		ev.Hysteresis = 1
	case config.EventA2:
		ev.Threshold1 = config.QuantizeEventRSRPThreshold(units.Dbm(g.draw("a2Thresh", p.A2Thresh, site, epoch, "active", act) - 4))
		ev.Hysteresis = 1
	case config.EventA4:
		ev.Threshold2 = config.QuantizeEventRSRPThreshold(units.Dbm(-100))
		ev.Hysteresis = 1
	}
	mc.Reports[2] = ev

	// A3-primary cells pair the intra-frequency comparison with an
	// inter-frequency A5 coverage event (deployment practice: A3 handles
	// same-carrier mobility; leaving the carrier needs absolute
	// thresholds), so coverage exits hand off via A5 instead of dying
	// into A2 rescues.
	hasCoverageA5 := false
	if primary == config.EventA3 && objID > 2 {
		cov := config.QuantizeEventRSRPThreshold(units.Dbm(g.draw("a2Thresh", p.A2Thresh, site, epoch, "active", act) - 7))
		mc.Reports[3] = config.EventConfig{
			Type: config.EventA5, Quantity: config.RSRP,
			Threshold1: cov, Threshold2: config.QuantizeEventRSRPThreshold(cov + 6),
			Hysteresis: units.Db(1), TimeToTriggerMs: units.Millis(320), ReportIntervalMs: ev.ReportIntervalMs,
			MaxReportCells: 4,
		}
		hasCoverageA5 = true
	}

	// Every object feeds the A2 gate. The primary event's scope follows
	// deployment practice: A3 watches the serving carrier only, while
	// threshold events (A5/A4) and periodic reports also watch the
	// inter-frequency objects.
	for id := 1; id < objID; id++ {
		mc.Links = append(mc.Links, config.MeasLink{ObjectID: id, ReportID: 1})
		if id == 1 || primary != config.EventA3 {
			mc.Links = append(mc.Links, config.MeasLink{ObjectID: id, ReportID: 2})
		}
		if hasCoverageA5 && id > 1 {
			mc.Links = append(mc.Links, config.MeasLink{ObjectID: id, ReportID: 3})
		}
	}
	return mc
}

// Config generates the cell's full configuration at an observation epoch.
// Epoch 0 is the initial deployment; later epochs re-draw only the
// parameters of "updater" cells per the temporal model.
func (g *Generator) Config(site CellSite, epoch int) *config.CellConfig {
	c := &config.CellConfig{
		Identity:   site.Identity,
		TxPowerDBm: units.Dbm(12 + 3*rng.New(seedFor(g.Carrier.Acronym, "txpower", fmt.Sprint(site.Identity.CellID))).Float64()),
		Serving:    g.servingConfig(site, epoch),
		Freqs:      g.freqRelations(site, epoch),
	}
	if site.Identity.RAT == config.RATLTE {
		c.Meas = g.measConfig(site, epoch)
	}
	// A small fraction of cells carry a forbidden-neighbor list (SIB4).
	rng := rng.New(seedFor(g.Carrier.Acronym, "forbidden", fmt.Sprint(site.Identity.CellID)))
	if rng.Float64() < 0.05 {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			c.ForbiddenCells = append(c.ForbiddenCells, uint32(rng.Intn(1<<20)))
		}
	}
	return c
}
