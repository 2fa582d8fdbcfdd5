// Package carrier models the mobile operators of the paper's dataset D2
// (Table 3: 30 carriers over 15 countries and regions) and generates each
// carrier's handoff configuration policy: which parameter values it uses,
// with what diversity, how they depend on frequency, city and neighborhood,
// and how often they change over time.
//
// This package is the substitution for the paper's proprietary measured
// configurations (DESIGN.md §1): the value pools below are calibrated to
// the distributions, dominant values, diversity indices and dependence
// patterns the paper reports, so the downstream crawler/analysis pipeline
// — which never sees this generator, only bytes on the wire — reproduces
// the paper's findings.
package carrier

import (
	"fmt"

	"mmlab/internal/config"
)

// Carrier describes one mobile operator.
type Carrier struct {
	Acronym string // the paper's bold short name: A, T, V, S, CM, ...
	Name    string
	Country string // ISO-ish region code: US, CN, KR, SG, HK, TW, NO, ...
	RATs    []config.RAT
	// CellShare is the carrier's approximate share of D2's 32k cells,
	// calibrated to Fig. 12's per-carrier footprint.
	CellShare float64
}

// HasRAT reports whether the carrier operates the given RAT.
func (c Carrier) HasRAT(r config.RAT) bool {
	for _, x := range c.RATs {
		if x == r {
			return true
		}
	}
	return false
}

// String returns "A (AT&T, US)".
func (c Carrier) String() string {
	return fmt.Sprintf("%s (%s, %s)", c.Acronym, c.Name, c.Country)
}

// gsmFamily is the UMTS/GSM RAT stack ("The UMTS/GSM family is more
// popular", paper §5).
var gsmFamily = []config.RAT{config.RATLTE, config.RATUMTS, config.RATGSM}

// cdmaFamily is the EVDO/CDMA1x stack ("EVDO/CDMA1x are only observed in
// Verizon, Sprint and China Telecom").
var cdmaFamily = []config.RAT{config.RATLTE, config.RATEVDO, config.RATCDMA1x}

// registry lists the 30 carriers of Table 3. Cell shares approximate
// Fig. 12: US and CN carriers dominate; "the number of cells is relatively
// small in small regions like Singapore, Hongkong, Taiwan and Korea".
var registry = []Carrier{
	// USA (4)
	{Acronym: "A", Name: "AT&T", Country: "US", RATs: gsmFamily, CellShare: 0.22},
	{Acronym: "T", Name: "T-Mobile", Country: "US", RATs: gsmFamily, CellShare: 0.15},
	{Acronym: "V", Name: "Verizon", Country: "US", RATs: cdmaFamily, CellShare: 0.13},
	{Acronym: "S", Name: "Sprint", Country: "US", RATs: cdmaFamily, CellShare: 0.08},
	// China (3)
	{Acronym: "CM", Name: "China Mobile", Country: "CN", RATs: gsmFamily, CellShare: 0.09},
	{Acronym: "CU", Name: "China Unicom", Country: "CN", RATs: gsmFamily, CellShare: 0.05},
	{Acronym: "CT", Name: "China Telecom", Country: "CN", RATs: cdmaFamily, CellShare: 0.04},
	// Korea (2)
	{Acronym: "KT", Name: "Korea Telecom", Country: "KR", RATs: gsmFamily, CellShare: 0.018},
	{Acronym: "SK", Name: "SK Telecom", Country: "KR", RATs: gsmFamily, CellShare: 0.02},
	// Singapore (3)
	{Acronym: "ST", Name: "Starhub", Country: "SG", RATs: gsmFamily, CellShare: 0.012},
	{Acronym: "SI", Name: "SingTel", Country: "SG", RATs: gsmFamily, CellShare: 0.012},
	{Acronym: "MO", Name: "MobileOne", Country: "SG", RATs: gsmFamily, CellShare: 0.015},
	// Hong Kong (2)
	{Acronym: "TH", Name: "Three HK", Country: "HK", RATs: gsmFamily, CellShare: 0.012},
	{Acronym: "CH", Name: "China Mobile HongKong", Country: "HK", RATs: gsmFamily, CellShare: 0.015},
	// Taiwan (2)
	{Acronym: "CW", Name: "ChungHwa Telecom", Country: "TW", RATs: gsmFamily, CellShare: 0.015},
	{Acronym: "TC", Name: "Taiwan Cellular", Country: "TW", RATs: gsmFamily, CellShare: 0.012},
	// Norway (1)
	{Acronym: "NC", Name: "NetCom", Country: "NO", RATs: gsmFamily, CellShare: 0.01},
	// Others (13), each with <100-cell footprints in D2.
	{Acronym: "OR", Name: "Orange", Country: "FR", RATs: gsmFamily, CellShare: 0.003},
	{Acronym: "DT", Name: "DeutscheTelekom", Country: "DE", RATs: gsmFamily, CellShare: 0.003},
	{Acronym: "VF", Name: "Vodafone", Country: "ES", RATs: gsmFamily, CellShare: 0.003},
	{Acronym: "MV", Name: "MoviStar", Country: "MX", RATs: gsmFamily, CellShare: 0.003},
	{Acronym: "BT", Name: "Bouygues", Country: "FR", RATs: gsmFamily, CellShare: 0.002},
	{Acronym: "TI", Name: "TIM", Country: "IT", RATs: gsmFamily, CellShare: 0.002},
	{Acronym: "DC", Name: "NTT Docomo", Country: "JP", RATs: gsmFamily, CellShare: 0.002},
	{Acronym: "SB", Name: "SoftBank", Country: "JP", RATs: gsmFamily, CellShare: 0.002},
	{Acronym: "RG", Name: "Rogers", Country: "CA", RATs: gsmFamily, CellShare: 0.002},
	{Acronym: "BE", Name: "Bell", Country: "CA", RATs: gsmFamily, CellShare: 0.002},
	{Acronym: "AI", Name: "Airtel", Country: "IN", RATs: gsmFamily, CellShare: 0.002},
	{Acronym: "JI", Name: "Jio", Country: "IN", RATs: []config.RAT{config.RATLTE}, CellShare: 0.002},
	{Acronym: "TE", Name: "Telia Norge", Country: "NO", RATs: gsmFamily, CellShare: 0.002},
}

// All returns the 30-carrier registry in canonical order. The slice is
// shared; callers must not modify it.
func All() []Carrier { return registry }

// ByAcronym looks a carrier up by its short name.
func ByAcronym(a string) (Carrier, bool) {
	for _, c := range registry {
		if c.Acronym == a {
			return c, true
		}
	}
	return Carrier{}, false
}

// Countries returns the distinct countries/regions in registry order of
// first appearance.
func Countries() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range registry {
		if !seen[c.Country] {
			seen[c.Country] = true
			out = append(out, c.Country)
		}
	}
	return out
}

// USCities are the five top cities of the paper's city-level analysis
// (Fig. 20) with their total-cell counts across the four US carriers:
// C1 Chicago 4671, C2 LA 2982, C3 Indianapolis 2348, C4 Columbus 1268,
// C5 Lafayette 745.
var USCities = []struct {
	Code  string
	Name  string
	Cells int
}{
	{"C1", "Chicago", 4671},
	{"C2", "Los Angeles", 2982},
	{"C3", "Indianapolis", 2348},
	{"C4", "Columbus", 1268},
	{"C5", "Lafayette", 745},
}
