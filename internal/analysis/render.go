package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mmlab/internal/carrier"
	"mmlab/internal/config"
)

// Table2 renders the LTE parameter catalog grouped by category, the shape
// of the paper's Table 2.
func Table2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: main configuration parameters standardized for handoff at 4G LTE cells (%d total)\n", config.CatalogSize(config.RATLTE))
	byCat := map[config.Category][]config.ParamDescriptor{}
	for _, p := range config.Catalog(config.RATLTE) {
		byCat[p.Category] = append(byCat[p.Category], p)
	}
	for _, cat := range []config.Category{config.CatCellPriority, config.CatRadioEval, config.CatTimer, config.CatMisc} {
		fmt.Fprintf(&b, "[%s]\n", cat)
		for _, p := range byCat[cat] {
			obs := " "
			if p.Observable() {
				obs = "*"
			}
			fmt.Fprintf(&b, "  %s %-26s used for %-12s message %s\n", obs, p.Name, p.UsedFor, p.Message)
		}
	}
	b.WriteString("(* = observable by the device-side crawler)\n")
	return b.String()
}

// Table3 renders the carrier registry grouped by country.
func Table3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: %d carriers over %d countries/regions\n", len(carrier.All()), len(carrier.Countries()))
	byCountry := map[string][]carrier.Carrier{}
	for _, c := range carrier.All() {
		byCountry[c.Country] = append(byCountry[c.Country], c)
	}
	for _, country := range carrier.Countries() {
		names := make([]string, 0, len(byCountry[country]))
		for _, c := range byCountry[country] {
			names = append(names, fmt.Sprintf("%s(%s)", c.Acronym, c.Name))
		}
		fmt.Fprintf(&b, "  %-3s %d: %s\n", country, len(byCountry[country]), strings.Join(names, ", "))
	}
	return b.String()
}

// RenderTable4 renders the per-RAT breakdown.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: breakdown per RAT\n")
	b.WriteString("  RAT      #params  cell-level\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %7d  %9.1f%%\n", r.RAT, r.Parameters, r.CellShare*100)
	}
	return b.String()
}

// RenderFig5 renders decisive-event shares and parameter ranges.
func RenderFig5(rows []Fig5Carrier) string {
	var b strings.Builder
	b.WriteString("Fig 5: reporting event configurations in active-state handoffs\n")
	for _, fc := range rows {
		fmt.Fprintf(&b, "  carrier %s (n=%d):\n   ", fc.Carrier, fc.N)
		for _, ev := range EventOrder {
			fmt.Fprintf(&b, " %s:%5.1f%%", ev, fc.Share[ev]*100)
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "    ΔA3 ∈ [%g, %g] (dominant %g)  HA3 ∈ [%g, %g]\n",
			fc.A3Offset[0], fc.A3Offset[1], fc.A3DominantOff, fc.A3Hysteresis[0], fc.A3Hysteresis[1])
		if !math.IsNaN(fc.A5RSRPT1[0]) {
			fmt.Fprintf(&b, "    A5(RSRP) ΘS ∈ [%g, %g]  ΘC ∈ [%g, %g]\n",
				fc.A5RSRPT1[0], fc.A5RSRPT1[1], fc.A5RSRPT2[0], fc.A5RSRPT2[1])
		}
		if !math.IsNaN(fc.A5RSRQT1[0]) {
			fmt.Fprintf(&b, "    A5(RSRQ) ΘS ∈ [%g, %g]  ΘC ∈ [%g, %g]\n",
				fc.A5RSRQT1[0], fc.A5RSRQT1[1], fc.A5RSRQT2[0], fc.A5RSRQT2[1])
		}
	}
	return b.String()
}

// RenderFig6 renders δRSRP statistics per decisive event.
func RenderFig6(r Fig6Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6: RSRP changes in active handoffs (%s)\n", r.Carrier)
	evs := make([]string, 0, len(r.ImprovedShare))
	for ev := range r.ImprovedShare {
		evs = append(evs, ev)
	}
	sort.Strings(evs)
	for _, ev := range evs {
		fmt.Fprintf(&b, "  %-2s n=%5d  δRSRP>0: %5.1f%%  (>−3dB: %5.1f%%)  median δ=%.1f dB\n",
			ev, len(r.Points[ev]), r.ImprovedShare[ev]*100, r.ImprovedWithin3dB[ev]*100,
			r.DeltaCDF[ev].Inverse(0.5))
	}
	if r.A5Pos.N() > 0 || r.A5Neg.N() > 0 {
		fmt.Fprintf(&b, "  A5 split: positive-config n=%d median δ=%.1f; negative-config n=%d median δ=%.1f\n",
			r.A5Pos.N(), r.A5Pos.Inverse(0.5), r.A5Neg.N(), r.A5Neg.Inverse(0.5))
	}
	return b.String()
}

// RenderFig9 renders the configuration→radio relations.
func RenderFig9(r Fig9Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9: radio impacts of A3/A5 configurations (%s, A5 on %s)\n", r.Carrier, r.Quantity)
	b.WriteString("  ΔA3 → δRSRP boxplots:\n")
	for _, k := range SortedKeys(r.DeltaByOffset) {
		fmt.Fprintf(&b, "    ΔA3=%4.1f  %s\n", k, r.DeltaByOffset[k])
	}
	b.WriteString("  ΘA5,S → r_old boxplots:\n")
	for _, k := range SortedKeys(r.OldByA5T1) {
		fmt.Fprintf(&b, "    ΘS=%6.1f  %s\n", k, r.OldByA5T1[k])
	}
	b.WriteString("  ΘA5,C → r_new boxplots:\n")
	for _, k := range SortedKeys(r.NewByA5T2) {
		fmt.Fprintf(&b, "    ΘC=%6.1f  %s\n", k, r.NewByA5T2[k])
	}
	return b.String()
}

// RenderFig10 renders idle-state δRSRP per category.
func RenderFig10(r Fig10Result) string {
	var b strings.Builder
	b.WriteString("Fig 10: RSRP changes in idle-state handoffs\n")
	for _, g := range Fig10Groups {
		if r.N[g] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-11s n=%5d  δRSRP>0: %5.1f%%  median δ=%.1f dB\n",
			g, r.N[g], r.ImprovedShare[g]*100, r.DeltaCDF[g].Inverse(0.5))
	}
	return b.String()
}

// RenderFig11 renders the threshold-gap CDFs.
func RenderFig11(r Fig11Result) string {
	var b strings.Builder
	b.WriteString("Fig 11: measurement vs decision thresholds (idle-state)\n")
	fmt.Fprintf(&b, "  Θintra−Θnonintra:  P(≥0)=%5.1f%%  equal=%4.1f%%  inverted=%4.2f%%\n",
		(1-r.IntraMinusNonIntra.At(-0.001))*100, r.EqualShare*100, r.InvertedShare*100)
	fmt.Fprintf(&b, "  Θintra−Θ(s)low:    P(>30dB)=%5.1f%%  median=%.0f dB\n",
		(1-r.IntraMinusServLow.At(30))*100, r.IntraMinusServLow.Inverse(0.5))
	fmt.Fprintf(&b, "  Θnonintra−Θ(s)low: P(<0)=%5.1f%%  median=%.0f dB\n",
		r.NonIntraMinusLow.At(-0.001)*100, r.NonIntraMinusLow.Inverse(0.5))
	return b.String()
}

// RenderFig12 renders the dataset footprint.
func RenderFig12(rows []Fig12Row) string {
	var b strings.Builder
	b.WriteString("Fig 12: number of cells and samples per carrier\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-3s cells=%6d samples=%9d\n", r.Carrier, r.Cells, r.Samples)
	}
	return b.String()
}

// RenderFig13 renders revisit statistics.
func RenderFig13(r Fig13Result) string {
	var b strings.Builder
	b.WriteString("Fig 13a: samples per cell (fractions)\n  ")
	for k := 1; k < len(r.SamplesPerCell); k++ {
		if r.SamplesPerCell[k] > 0 {
			fmt.Fprintf(&b, "%d:%.1f%% ", k, r.SamplesPerCell[k]*100)
		}
	}
	fmt.Fprintf(&b, "\n  multi-sample cells: %.1f%%\n", r.MultiShare*100)
	b.WriteString("Fig 13b: temporal dynamics (% cells with changed configuration)\n")
	for i, g := range r.GapDays {
		label := fmt.Sprintf("≤%gd", g)
		if math.IsInf(g, 1) {
			label = ">180d"
		}
		fmt.Fprintf(&b, "  gap %-6s idle %5.2f%%  active %5.2f%%\n",
			label, r.IdleChanged[i]*100, r.ActiveChanged[i]*100)
	}
	return b.String()
}

// RenderParamDists renders a list of parameter distributions.
func RenderParamDists(title string, pds []ParamDist) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, pd := range pds {
		fmt.Fprintf(&b, "  %-26s n=%5d D=%.2f Cv=%.2f rich=%d  %s\n",
			pd.Param, pd.N, pd.Diversity.Simpson, pd.Diversity.Cv, pd.Diversity.Richness,
			clip(pd.Dist.String(), 90))
	}
	return b.String()
}

// RenderCrossCarrier renders a per-parameter × carrier panel (Figs. 15/17).
func RenderCrossCarrier(title string, m map[string][]ParamDist) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	params := make([]string, 0, len(m))
	for p := range m {
		params = append(params, p)
	}
	sort.Strings(params)
	for _, p := range params {
		fmt.Fprintf(&b, "  %s:\n", p)
		for _, pd := range m[p] {
			fmt.Fprintf(&b, "    %-3s D=%.2f Cv=%.2f rich=%2d  %s\n",
				pd.Carrier, pd.Diversity.Simpson, pd.Diversity.Cv, pd.Diversity.Richness,
				clip(pd.Dist.String(), 70))
		}
	}
	return b.String()
}

// RenderFig18 renders the per-channel priority breakdown.
func RenderFig18(r Fig18Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 18: priority breakdown over frequency (%s); multi-value cell share %.1f%%\n",
		r.Carrier, r.MultiValueCellShare*100)
	for _, ch := range r.Channels {
		if d, ok := r.Serving[ch]; ok && d.N > 0 {
			fmt.Fprintf(&b, "  ch %-6d serving   %s\n", ch, d)
		}
		if d, ok := r.Candidate[ch]; ok && d.N > 0 {
			fmt.Fprintf(&b, "  ch %-6d candidate %s\n", ch, d)
		}
	}
	return b.String()
}

// RenderFig19 renders the frequency-dependence rows.
func RenderFig19(rows []Fig19Row, carrierAcr string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 19: frequency dependence ζ per parameter (%s)\n", carrierAcr)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-26s ζD=%.3f ζCv=%.3f\n", r.Param, r.ZetaD, r.ZetaC)
	}
	return b.String()
}

// RenderFig20 renders city-level distributions.
func RenderFig20(rows []Fig20Row) string {
	var b strings.Builder
	b.WriteString("Fig 20: city-level priority distributions\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-3s %-3s %s\n", r.Carrier, r.City, r.Dist)
	}
	return b.String()
}

// RenderFig21 renders spatial-diversity boxplots.
func RenderFig21(rs []Fig21Result) string {
	var b strings.Builder
	b.WriteString("Fig 21: spatial diversity of Ps within neighborhoods\n")
	for _, r := range rs {
		fmt.Fprintf(&b, "  %s (%s):\n", r.Carrier, r.City)
		for _, rad := range SortedKeys(r.ByRadius) {
			fmt.Fprintf(&b, "    r=%.1fkm %s\n", rad, r.ByRadius[rad])
		}
	}
	return b.String()
}

// RenderFig22 renders the per-RAT diversity boxplots.
func RenderFig22(groups []Fig22Group) string {
	var b strings.Builder
	b.WriteString("Fig 22: Simpson-index boxplots per RAT\n")
	for _, g := range groups {
		fmt.Fprintf(&b, "  %-12s params=%2d %s\n", g.Label, len(g.Values), g.Simpson)
	}
	return b.String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
