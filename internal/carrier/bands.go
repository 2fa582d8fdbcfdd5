package carrier

import (
	"mmlab/internal/config"
	"mmlab/internal/rng"
	"mmlab/internal/units"
)

// EARFCN↔frequency mapping (paper §5.4.1: "The channel number is called
// EARFCN ... their mappings to frequency spectrum bands are regulated by
// [TS 36.101]"). Each row maps a downlink EARFCN range to its band and the
// band's downlink low edge; DL frequency = FDLLow + 0.1·(EARFCN − NOffs).
type bandRange struct {
	Band   int
	NOffs  uint32
	NLast  uint32
	FDLLow float64 // MHz
}

var lteBands = []bandRange{
	{1, 0, 599, 2110},
	{2, 600, 1199, 1930},
	{3, 1200, 1949, 1805},
	{4, 1950, 2399, 2110},
	{5, 2400, 2649, 869},
	{7, 2750, 3449, 2620},
	{12, 5010, 5179, 729},
	{13, 5180, 5279, 746},
	{17, 5730, 5849, 734},
	{25, 8040, 8689, 1930},
	{26, 8690, 9039, 859},
	{28, 9210, 9659, 758},
	{30, 9770, 9869, 2350},
	{38, 37750, 38249, 2570},
	{39, 38250, 38649, 1880},
	{40, 38650, 39649, 2300},
	{41, 39650, 41589, 2496},
}

// LTEBand returns the 3GPP band number for an EARFCN, or 0 if unmapped.
func LTEBand(earfcn uint32) int {
	for _, b := range lteBands {
		if earfcn >= b.NOffs && earfcn <= b.NLast {
			return b.Band
		}
	}
	return 0
}

// FreqMHz returns the downlink carrier frequency for a channel number of
// the given RAT. Unknown channels fall back to 1900 MHz (mid-band) so the
// radio model stays usable.
func FreqMHz(rat config.RAT, ch uint32) units.MegaHz {
	switch rat {
	case config.RATLTE:
		for _, b := range lteBands {
			if ch >= b.NOffs && ch <= b.NLast {
				return units.MegaHz(b.FDLLow + 0.1*float64(ch-b.NOffs))
			}
		}
	case config.RATUMTS:
		// UARFCN: DL frequency = UARFCN / 5 (general formula).
		return units.MegaHz(float64(ch) / 5)
	case config.RATGSM:
		// GSM-850: ARFCN 128..251; PCS-1900: 512..810.
		if ch >= 128 && ch <= 251 {
			return units.MegaHz(869 + 0.2*float64(ch-128))
		}
		if ch >= 512 && ch <= 810 {
			return units.MegaHz(1930.2 + 0.2*float64(ch-512))
		}
		return 900
	case config.RATEVDO, config.RATCDMA1x:
		// CDMA band class 0 (800) and 1 (1900), channel-coded coarsely.
		if ch < 1000 {
			return units.MegaHz(869 + 0.03*float64(ch))
		}
		return units.MegaHz(1930 + 0.05*float64(ch-1000))
	}
	return 1900
}

// BandPlan is the set of channels a carrier operates per RAT, with the
// approximate share of cells deployed on each channel.
type BandPlan struct {
	Channels map[config.RAT][]ChannelUse
}

// ChannelUse is one deployed channel and its deployment weight.
type ChannelUse struct {
	EARFCN uint32
	Weight float64
}

// channelsFor returns the channel uses for a RAT (nil when the carrier
// does not operate it).
func (p BandPlan) channelsFor(rat config.RAT) []ChannelUse {
	return p.Channels[rat]
}

// attBandPlan reproduces the paper's AT&T observation (Fig. 18): 24+
// distinct channels, serving cells primarily on 850, 1975, 2000, 5110,
// 5780 and 9820 — bands 2/4 PCS+AWS, band 12/17 LTE-exclusive 700 MHz
// "main bands", and the newly acquired band 30 (2300 WCS).
func attBandPlan() BandPlan {
	return BandPlan{Channels: map[config.RAT][]ChannelUse{
		config.RATLTE: {
			{675, 0.01}, {700, 0.01}, {725, 0.01}, {750, 0.01}, {775, 0.01},
			{800, 0.02}, {825, 0.01}, {850, 0.14},
			{1975, 0.13}, {2000, 0.12}, {2175, 0.02}, {2200, 0.01}, {2225, 0.02},
			{2425, 0.03}, {2430, 0.02}, {2535, 0.01}, {2538, 0.01}, {2600, 0.02},
			{5110, 0.11}, {5145, 0.03}, {5330, 0.01},
			{5760, 0.02}, {5780, 0.12}, {5815, 0.02},
			{9000, 0.01}, {9720, 0.01}, {9820, 0.09},
		},
		config.RATUMTS: {{4385, 0.5}, {4435, 0.3}, {9721, 0.2}},
		config.RATGSM:  {{128, 0.5}, {512, 0.5}},
	}}
}

func tmobileBandPlan() BandPlan {
	return BandPlan{Channels: map[config.RAT][]ChannelUse{
		config.RATLTE: {
			{1950, 0.22}, {2050, 0.18}, {2100, 0.12}, // band 4 AWS
			{1200, 0.15}, {1275, 0.10}, // band 3-style mid
			{5035, 0.13}, {5090, 0.05}, // band 12 700MHz
			{39750, 0.05}, {40072, 0.00}, // band 41-ish
		},
		config.RATUMTS: {{4385, 0.6}, {9700, 0.4}},
		config.RATGSM:  {{512, 1.0}},
	}}
}

func verizonBandPlan() BandPlan {
	return BandPlan{Channels: map[config.RAT][]ChannelUse{
		config.RATLTE: {
			{5230, 0.40},               // band 13 750MHz — Verizon's nationwide layer
			{2050, 0.20}, {2000, 0.12}, // band 4 AWS
			{675, 0.14}, {850, 0.14}, // band 2 PCS
		},
		config.RATEVDO:   {{283, 0.6}, {1025, 0.4}},
		config.RATCDMA1x: {{283, 0.7}, {1025, 0.3}},
	}}
}

func sprintBandPlan() BandPlan {
	return BandPlan{Channels: map[config.RAT][]ChannelUse{
		config.RATLTE: {
			{8665, 0.30},                 // band 25 PCS
			{8763, 0.20},                 // band 26 850
			{39874, 0.30}, {40978, 0.20}, // band 41 2.5GHz
		},
		config.RATEVDO:   {{476, 0.6}, {1175, 0.4}},
		config.RATCDMA1x: {{476, 1.0}},
	}}
}

func chinaMobileBandPlan() BandPlan {
	return BandPlan{Channels: map[config.RAT][]ChannelUse{
		config.RATLTE: {
			{37900, 0.25}, {38098, 0.15}, // band 38
			{38400, 0.15}, {38544, 0.10}, // band 39
			{38950, 0.20}, {39148, 0.15}, // band 40
		},
		config.RATUMTS: {{10087, 1.0}}, // TD-SCDMA stand-in
		config.RATGSM:  {{94, 0.6}, {587, 0.4}},
	}}
}

// genericBandPlan synthesizes a modest plan for carriers the paper does
// not detail, seeded per carrier for variety.
func genericBandPlan(seed int64, rats []config.RAT) BandPlan {
	rng := rng.New(seed)
	lteChoices := []uint32{100, 300, 1300, 1451, 1650, 2850, 3050, 3350, 6200, 6300, 9260, 9435}
	n := 3 + rng.Intn(3)
	uses := make([]ChannelUse, 0, n)
	perm := rng.Perm(len(lteChoices))
	for i := 0; i < n; i++ {
		uses = append(uses, ChannelUse{EARFCN: lteChoices[perm[i]], Weight: 1 / float64(n)})
	}
	p := BandPlan{Channels: map[config.RAT][]ChannelUse{config.RATLTE: uses}}
	for _, r := range rats {
		switch r {
		case config.RATUMTS:
			p.Channels[r] = []ChannelUse{{uint32(10560 + rng.Intn(50)*5), 1.0}}
		case config.RATGSM:
			p.Channels[r] = []ChannelUse{{uint32(128 + rng.Intn(100)), 1.0}}
		case config.RATEVDO, config.RATCDMA1x:
			p.Channels[r] = []ChannelUse{{uint32(200 + rng.Intn(300)), 1.0}}
		}
	}
	return p
}

// PlanFor returns a carrier's band plan.
func PlanFor(c Carrier) BandPlan {
	switch c.Acronym {
	case "A":
		return attBandPlan()
	case "T":
		return tmobileBandPlan()
	case "V":
		return verizonBandPlan()
	case "S":
		return sprintBandPlan()
	case "CM":
		return chinaMobileBandPlan()
	default:
		return genericBandPlan(seedFor(c.Acronym, "bandplan"), c.RATs)
	}
}
