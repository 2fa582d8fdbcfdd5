package carrier

import (
	"mmlab/internal/config"
	"mmlab/internal/rng"
)

// Scope says at what granularity a parameter's value is (re)drawn. It is a
// bit set: including ScopeCell gives per-cell variation (spatial diversity
// within neighborhoods, Fig. 21 AT&T/Verizon/Sprint); including ScopeTile
// but not ScopeCell makes nearby cells share values (T-Mobile's near-zero
// proximity diversity); ScopeCity realizes city-level customization
// (Fig. 20); ScopeChannel makes values frequency-dependent (Fig. 18/19).
type Scope uint8

// Scope bits.
const (
	ScopeCity Scope = 1 << iota
	ScopeTile       // 5 km grid tile
	ScopeChannel
	ScopeCell
)

// ParamPolicy couples a value pool with its variation scope.
type ParamPolicy struct {
	Pool  Pool
	Scope Scope
}

// PolicyProfile is one carrier's configuration policy: every knob the
// generator draws, calibrated per carrier to the paper's findings.
type PolicyProfile struct {
	// Idle-state serving-cell parameters (SIB1/SIB3).
	QHyst          ParamPolicy
	DeltaMin       ParamPolicy // qRxLevMin
	QQualMin       ParamPolicy
	IntraSearch    ParamPolicy // Θintra
	NonIntraSearch ParamPolicy // Θnonintra
	ThreshServLow  ParamPolicy // Θ(s)lower
	TResel         ParamPolicy
	THigherMeas    ParamPolicy

	// Cell-reselection priorities: per-LTE-channel pools (Fig. 18: "each
	// frequency channel is mostly associated with one single/dominant
	// value"); RATPriority covers the non-LTE layers.
	PriorityByChannel map[uint32]Pool
	PriorityDefault   Pool
	RATPriority       map[config.RAT]Pool
	PriorityScope     Scope

	// Per-frequency decision thresholds (SIB5/6/7/8).
	ThreshXHigh ParamPolicy
	ThreshXLow  ParamPolicy
	QOffsetFreq ParamPolicy

	// Active-state policy.
	EventMix       map[config.EventType]float64 // primary handoff event shares (Fig. 5)
	A3Offset       ParamPolicy
	A3Hyst         ParamPolicy
	A5RSRQShare    float64 // fraction of A5 configs evaluated on RSRQ
	A5T1RSRP       ParamPolicy
	A5T2RSRP       ParamPolicy
	A5T1RSRQ       ParamPolicy
	A5T2RSRQ       ParamPolicy
	A2Thresh       ParamPolicy // the measurement-gate A2 every cell configures
	TTT            ParamPolicy
	ReportInterval ParamPolicy
	PeriodicInt    ParamPolicy
	FilterK        ParamPolicy

	// CityVariantCity, when non-empty, names the city whose distributions
	// are visibly shifted (the paper's Chicago effect, Fig. 20).
	CityVariantCity string

	// Re-observation update rates (Fig. 13b): probability that a cell's
	// idle/active parameters read differently months later.
	IdleUpdateRate   float64
	ActiveUpdateRate float64
}

// Standard event-timer pools shared by several carriers.
var (
	tttCommon    = NewPool([]float64{40, 80, 100, 128, 160, 320, 480, 640, 1280}, []float64{0.05, 0.1, 0.1, 0.1, 0.15, 0.3, 0.1, 0.07, 0.03})
	repIntCommon = Dominated(240, 0.7, 120, 480, 1024)
	perIntCommon = Dominated(2048, 0.6, 5120, 1024)
)

// attProfile is calibrated to the paper's AT&T observations:
// Fig. 5a (A3 67.4 %, A5 26.1 %, P 4.4 %, A2 1.7 %; ΔA3 ∈ [0,5] dominated
// by 3; HA3 ∈ [1,2.5]; A5 RSRP ΘS=−44/ΘC=−114; A5 RSRQ ΘS ∈ [−18,−11.5],
// ΘC ∈ [−18.5,−14]), Fig. 14 (Hs single 4 dB; Δmin dominated −122; Θ(s)low,
// Θnonintra, ΘA5,S with ~20 options; Ps spread over 2–6; TTT ∈ [40,1280]),
// Fig. 18 (per-channel priorities; band 12/17 low, band 30 high), §4.2's
// common instance (Θintra=62, Θnonintra=28, Δmin=−122, Θ(s)low=6, Hs=4).
func attProfile() PolicyProfile {
	spatial := ScopeCity | ScopeCell
	return PolicyProfile{
		QHyst:       ParamPolicy{Single(4), 0},
		DeltaMin:    ParamPolicy{Dominated(-122, 0.96, -124, -120, -118, -116, -114, -94), spatial},
		QQualMin:    ParamPolicy{Single(-19.5), 0},
		IntraSearch: ParamPolicy{Dominated(62, 0.85, 58, 54, 50, 46, 42, 36, 30), spatial},
		NonIntraSearch: ParamPolicy{NewPool(
			[]float64{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 34, 38, 46, 54, 62},
			[]float64{1, 2, 2, 3, 4, 5, 5, 5, 6, 7, 8, 8, 8, 9, 25, 8, 6, 4, 2, 1, 1}), spatial},
		ThreshServLow: ParamPolicy{NewPool(
			[]float64{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 30, 34, 46},
			[]float64{2, 6, 10, 38, 8, 16, 5, 4, 3, 2, 2, 1, 1, 1, 0.5, 0.5, 0.3}), spatial},
		TResel:      ParamPolicy{Dominated(2, 0.8, 1, 3), ScopeCell},
		THigherMeas: ParamPolicy{Single(60), 0},

		PriorityByChannel: map[uint32]Pool{
			// Band 2/5 PCS+850 legacy spectrum.
			675: Single(3), 700: Single(3), 725: Single(3), 750: Single(3),
			775: Single(3), 800: Single(3), 825: Single(3), 850: Single(3),
			// Band 4 AWS-1: the paper's exception with multiple values.
			1975: Dominated(3, 0.85, 4, 2), 2000: Dominated(3, 0.85, 4),
			2175: Single(4), 2200: Single(4), 2225: Single(4),
			2425: Dominated(4, 0.9, 3), 2430: Single(4),
			2535: Single(4), 2538: Single(4), 2600: Single(4),
			// Bands 12/17: LTE-exclusive "main bands" get LOW priority 2.
			5110: Single(2), 5145: Single(2), 5330: Single(2),
			5760: Single(2), 5780: Dominated(2, 0.93, 3), 5815: Single(2),
			9000: Single(4), 9720: Single(4),
			// Band 30 (2300 WCS, newly acquired): the HIGHEST priority.
			9820: Dominated(5, 0.85, 4),
		},
		PriorityDefault: Dominated(3, 0.7, 4, 2),
		RATPriority: map[config.RAT]Pool{
			config.RATUMTS: Dominated(1, 0.9, 2),
			config.RATGSM:  Single(0),
		},
		PriorityScope: ScopeCity | ScopeCell,

		ThreshXHigh: ParamPolicy{Dominated(12, 0.6, 8, 10, 14, 18, 22), ScopeCell},
		ThreshXLow:  ParamPolicy{Dominated(4, 0.5, 0, 2, 6, 8, 10), ScopeCell},
		QOffsetFreq: ParamPolicy{Dominated(0, 0.8, -2, 2, 4), ScopeCell},

		EventMix: map[config.EventType]float64{
			config.EventA3:       0.674,
			config.EventA5:       0.261,
			config.EventPeriodic: 0.044,
			config.EventA2:       0.017,
			config.EventA1:       0.002,
			config.EventA4:       0.002,
		},
		A3Offset:    ParamPolicy{NewPool([]float64{0, 1, 2, 3, 4, 5}, []float64{2, 4, 10, 64, 12, 8}), spatial},
		A3Hyst:      ParamPolicy{NewPool([]float64{1, 1.5, 2, 2.5}, []float64{5, 2, 2, 1}), ScopeCell},
		A5RSRQShare: 0.5,
		// RSRP A5: dominant ΘS=−44 dBm (no serving requirement), ΘC=−114.
		A5T1RSRP: ParamPolicy{Dominated(-44, 0.8, -118, -110, -100, -90, -80, -70, -60, -124, -128, -132, -136, -140, -54, -64, -74, -84, -94, -104, -114, -48), spatial},
		A5T2RSRP: ParamPolicy{Dominated(-114, 0.85, -118, -112, -108, -104), ScopeCell},
		// RSRQ A5: ΘS ∈ [−18,−11.5] and ΘC ∈ [−18.5,−14], ΘS > ΘC mostly.
		A5T1RSRQ:       ParamPolicy{NewPool([]float64{-11.5, -12.5, -14, -15, -16, -18}, []float64{8, 4, 4, 2, 2, 1}), ScopeCell},
		A5T2RSRQ:       ParamPolicy{NewPool([]float64{-14, -15, -16.5, -18.5}, []float64{6, 3, 2, 1}), ScopeCell},
		A2Thresh:       ParamPolicy{Dominated(-110, 0.6, -106, -114, -118), ScopeCell},
		TTT:            ParamPolicy{tttCommon, ScopeCell},
		ReportInterval: ParamPolicy{repIntCommon, ScopeCell},
		PeriodicInt:    ParamPolicy{perIntCommon, ScopeCell},
		FilterK:        ParamPolicy{Dominated(4, 0.9, 8), 0},

		CityVariantCity:  "C1",
		IdleUpdateRate:   0.012,
		ActiveUpdateRate: 0.28,
	}
}

// tmobileProfile is calibrated to Fig. 5b (A3 67.7 %, P 20.2 %, A5 10.0 %;
// ΔA3 ∈ [−1,15] with dominant 3/4/5 — including the negative offsets §6
// flags; HA3 ∈ [0,5] dominant 1; A5 RSRP ΘS ∈ [−121,−87], ΘC ∈ [−118,−101])
// and Fig. 21 (near-zero spatial diversity in close proximity: parameters
// vary per 5 km tile, not per cell).
func tmobileProfile() PolicyProfile {
	tile := ScopeCity | ScopeTile
	return PolicyProfile{
		QHyst:          ParamPolicy{Single(4), 0},
		DeltaMin:       ParamPolicy{Dominated(-124, 0.9, -126, -122, -120), tile},
		QQualMin:       ParamPolicy{Single(-19.5), 0},
		IntraSearch:    ParamPolicy{Dominated(60, 0.8, 62, 56, 48, 40), tile},
		NonIntraSearch: ParamPolicy{NewPool([]float64{4, 8, 12, 16, 20, 24, 28, 32, 40, 48}, []float64{2, 4, 6, 8, 10, 20, 10, 6, 3, 1}), tile},
		ThreshServLow:  ParamPolicy{NewPool([]float64{2, 4, 6, 8, 10, 12, 16, 20, 26}, []float64{4, 10, 30, 12, 8, 5, 3, 2, 1}), tile},
		TResel:         ParamPolicy{Dominated(1, 0.7, 2), tile},
		THigherMeas:    ParamPolicy{Single(60), 0},

		// T-Mobile plans one priority per market for ALL its LTE carriers:
		// cells in close proximity (same city) always agree — the paper's
		// near-zero spatial diversity (Fig. 21) — while cities differ,
		// giving the carrier-level diversity of Figs. 15/20.
		PriorityByChannel: map[uint32]Pool{},
		PriorityDefault:   Uniform(3, 4, 5, 6),
		RATPriority: map[config.RAT]Pool{
			config.RATUMTS: Single(2),
			config.RATGSM:  Single(0),
		},
		PriorityScope: ScopeCity, // uniform per city: near-zero proximity diversity

		ThreshXHigh: ParamPolicy{Dominated(10, 0.7, 14, 18), tile},
		ThreshXLow:  ParamPolicy{Dominated(2, 0.7, 4, 6), tile},
		QOffsetFreq: ParamPolicy{Single(0), 0},

		EventMix: map[config.EventType]float64{
			config.EventA3:       0.677,
			config.EventPeriodic: 0.202,
			config.EventA5:       0.100,
			config.EventA2:       0.017,
			config.EventA1:       0.002,
			config.EventA4:       0.002,
		},
		A3Offset: ParamPolicy{NewPool(
			[]float64{-1, 0, 1, 1.5, 2, 3, 4, 5, 6, 8, 10, 12, 15},
			[]float64{2, 2, 4, 3, 6, 22, 20, 18, 6, 5, 4, 5, 3}), tile},
		A3Hyst:         ParamPolicy{Dominated(1, 0.7, 0, 2, 3, 5), tile},
		A5RSRQShare:    0.04,
		A5T1RSRP:       ParamPolicy{NewPool([]float64{-87, -92, -97, -102, -107, -112, -117, -121}, []float64{3, 4, 6, 8, 8, 6, 4, 3}), tile},
		A5T2RSRP:       ParamPolicy{NewPool([]float64{-101, -106, -110, -114, -118}, []float64{3, 6, 8, 6, 3}), tile},
		A5T1RSRQ:       ParamPolicy{Single(-12), 0},
		A5T2RSRQ:       ParamPolicy{Single(-15), 0},
		A2Thresh:       ParamPolicy{Dominated(-108, 0.7, -112, -116), tile},
		TTT:            ParamPolicy{tttCommon, tile},
		ReportInterval: ParamPolicy{repIntCommon, tile},
		PeriodicInt:    ParamPolicy{Dominated(2048, 0.6, 5120, 1024), tile},
		FilterK:        ParamPolicy{Single(4), 0},

		CityVariantCity:  "C1",
		IdleUpdateRate:   0.008,
		ActiveUpdateRate: 0.27,
	}
}

// skProfile gives SK Telecom "the lowest diversity for almost all the
// parameters ... all four representative parameters ... single-valued"
// (§5.3).
func skProfile() PolicyProfile {
	p := genericProfile(seedFor("SK", "profile"), 0)
	single := func(v float64) ParamPolicy { return ParamPolicy{Single(v), 0} }
	p.QHyst = single(2)
	p.DeltaMin = single(-120)
	p.IntraSearch = single(58)
	p.NonIntraSearch = single(20)
	p.ThreshServLow = single(8)
	p.TResel = single(1)
	p.PriorityByChannel = map[uint32]Pool{}
	p.PriorityDefault = Single(5)
	p.PriorityScope = 0
	p.ThreshXHigh = single(12)
	p.ThreshXLow = single(4)
	p.A3Offset = single(3)
	p.A3Hyst = single(1)
	p.A5T1RSRP = single(-105)
	p.A5T2RSRP = single(-110)
	p.A2Thresh = single(-110)
	p.TTT = single(320)
	p.IdleUpdateRate = 0.004
	p.ActiveUpdateRate = 0.16
	return p
}

// moProfile gives MobileOne low (but not zero) diversity (§5.3).
func moProfile() PolicyProfile {
	p := genericProfile(seedFor("MO", "profile"), 0.25)
	p.QHyst = ParamPolicy{Single(3), 0}
	p.DeltaMin = ParamPolicy{Single(-122), 0}
	p.A3Offset = ParamPolicy{Dominated(2, 0.9, 3), ScopeCell}
	p.ThreshServLow = ParamPolicy{Dominated(6, 0.9, 8), ScopeCell}
	p.PriorityByChannel = map[uint32]Pool{}
	p.PriorityDefault = Dominated(5, 0.95, 4)
	return p
}

// genericProfile synthesizes a medium/high-diversity profile for carriers
// the paper does not detail, seeded for cross-carrier variety. diversity
// in [0,1] scales how many alternate values each pool carries.
func genericProfile(seed int64, diversity float64) PolicyProfile {
	rng := rng.New(seed)
	if diversity <= 0 {
		diversity = 0.3
	}
	alt := func(base, step float64, n int) Pool {
		k := 1 + int(diversity*float64(n))
		vals := []float64{base}
		ws := []float64{10}
		for i := 1; i <= k; i++ {
			vals = append(vals, base+step*float64(i))
			ws = append(ws, 10*diversity/float64(i))
		}
		return NewPool(vals, ws)
	}
	spatial := ScopeCity | ScopeCell
	prioDefault := Dominated(float64(3+rng.Intn(3)), 0.85, float64(2+rng.Intn(2)))
	return PolicyProfile{
		QHyst:          ParamPolicy{Single(float64(2 + rng.Intn(3))), 0},
		DeltaMin:       ParamPolicy{alt(-124+float64(rng.Intn(3))*2, 2, 3), spatial},
		QQualMin:       ParamPolicy{Single(-19.5), 0},
		IntraSearch:    ParamPolicy{alt(46+float64(rng.Intn(4))*4, 4, 4), spatial},
		NonIntraSearch: ParamPolicy{alt(12+float64(rng.Intn(4))*4, 4, 6), spatial},
		ThreshServLow:  ParamPolicy{alt(4+float64(rng.Intn(3))*2, 2, 6), spatial},
		TResel:         ParamPolicy{Dominated(2, 0.8, 1), ScopeCell},
		THigherMeas:    ParamPolicy{Single(60), 0},

		PriorityByChannel: map[uint32]Pool{},
		PriorityDefault:   prioDefault,
		RATPriority: map[config.RAT]Pool{
			config.RATUMTS:   Single(1),
			config.RATGSM:    Single(0),
			config.RATEVDO:   Single(1),
			config.RATCDMA1x: Single(0),
		},
		PriorityScope: ScopeCity | ScopeCell,

		ThreshXHigh: ParamPolicy{alt(8+float64(rng.Intn(3))*2, 2, 4), ScopeCell},
		ThreshXLow:  ParamPolicy{alt(2+float64(rng.Intn(2))*2, 2, 3), ScopeCell},
		QOffsetFreq: ParamPolicy{Dominated(0, 0.9, 2), ScopeCell},

		EventMix: map[config.EventType]float64{
			config.EventA3:       0.55 + rng.Float64()*0.2,
			config.EventA5:       0.1 + rng.Float64()*0.15,
			config.EventPeriodic: 0.05 + rng.Float64()*0.1,
			config.EventA2:       0.02,
			config.EventA1:       0.003,
			config.EventA4:       0.003,
		},
		A3Offset:       ParamPolicy{alt(2+float64(rng.Intn(3)), 1, 4), spatial},
		A3Hyst:         ParamPolicy{Dominated(1, 0.8, 2), ScopeCell},
		A5RSRQShare:    0.1 * rng.Float64(),
		A5T1RSRP:       ParamPolicy{alt(-115+float64(rng.Intn(4))*5, 5, 4), spatial},
		A5T2RSRP:       ParamPolicy{alt(-112+float64(rng.Intn(3))*4, 4, 3), ScopeCell},
		A5T1RSRQ:       ParamPolicy{Single(-12), 0},
		A5T2RSRQ:       ParamPolicy{Single(-15), 0},
		A2Thresh:       ParamPolicy{alt(-114+float64(rng.Intn(3))*4, 4, 2), ScopeCell},
		TTT:            ParamPolicy{tttCommon, ScopeCell},
		ReportInterval: ParamPolicy{repIntCommon, ScopeCell},
		PeriodicInt:    ParamPolicy{perIntCommon, ScopeCell},
		FilterK:        ParamPolicy{Single(4), 0},

		IdleUpdateRate:   0.008 + rng.Float64()*0.008,
		ActiveUpdateRate: 0.24 + rng.Float64()*0.06,
	}
}

// ProfileFor returns the policy profile of a carrier.
func ProfileFor(c Carrier) PolicyProfile {
	switch c.Acronym {
	case "A":
		return attProfile()
	case "T":
		return tmobileProfile()
	case "SK":
		return skProfile()
	case "MO":
		return moProfile()
	case "V", "S", "CM", "CH", "CW":
		// High-diversity carriers (Figs. 15, 17, 21).
		return genericProfile(seedFor(c.Acronym, "profile"), 0.85)
	default:
		return genericProfile(seedFor(c.Acronym, "profile"), 0.5)
	}
}
