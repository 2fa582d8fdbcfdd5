// Package radio models the radio layer the paper's handoff machinery
// observes: COST-231 Hata path loss, correlated log-normal shadowing, fast
// fading, RSRP/RSRQ measurement with 3GPP quantization and L3 filtering,
// and the SINR→throughput mapping used by the Type-II performance
// experiments.
//
// All signal strengths follow the paper's conventions: RSRP in dBm within
// [−140, −44], RSRQ in dB within [−19.5, −3] (§2.2).
package radio

import (
	"math"

	"mmlab/internal/units"
)

// RSRP and RSRQ bounds per 3GPP TS 36.133 and paper §2.2.
const (
	RSRPMin = -140.0 // dBm
	RSRPMax = -44.0  // dBm
	RSRQMin = -19.5  // dB
	RSRQMax = -3.0   // dB
)

// ClampRSRP limits v to the reportable RSRP range.
func ClampRSRP(v units.Dbm) units.Dbm { return units.Dbm(clamp(v.V(), RSRPMin, RSRPMax)) }

// ClampRSRQ limits v to the reportable RSRQ range.
func ClampRSRQ(v units.Db) units.Db { return units.Db(clamp(v.V(), RSRQMin, RSRQMax)) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// COST231Hata is the COST-231 Hata urban macro model for a medium city,
// the standard planning model for the 150–2000 MHz cellular bands; we
// extend it to the 2.3/2.6 GHz LTE bands as planning tools commonly do.
// It is the one path-loss model every world uses, with a 30 m base-station
// antenna and a 1.5 m UE antenna.
type COST231Hata struct{}

// Antenna heights in meters.
const (
	baseHeight   = 30
	mobileHeight = 1.5
)

// log10BaseHeight is log10(baseHeight), computed once.
var log10BaseHeight = math.Log10(baseHeight)

// DefaultCOST231 returns the model.
func DefaultCOST231() COST231Hata { return COST231Hata{} }

// Loss returns the path loss in dB (positive) for a link of dist meters at
// freqMHz carrier frequency. It is non-decreasing in distance.
func (COST231Hata) Loss(dist units.Meters, freqMHz units.MegaHz) units.Db {
	d, f := dist.V(), freqMHz.V()
	if d < 10 {
		d = 10 // model validity floor; also avoids -inf
	}
	lf, lhb := math.Log10(f), log10BaseHeight
	// Mobile antenna correction for medium cities.
	a := (1.1*lf-0.7)*mobileHeight - (1.56*lf - 0.8)
	return units.Db(46.3 + 33.9*lf - 13.82*lhb - a +
		(44.9-6.55*lhb)*math.Log10(d/1000))
}

// RSRPAt converts a link budget to RSRP: transmit reference-signal power
// txPowerDBm minus COST-231 Hata path loss minus extra attenuation
// (shadowing+fading, dB, positive attenuates). The result is clamped to
// the reportable range.
func RSRPAt(txPowerDBm units.Dbm, d units.Meters, freqMHz units.MegaHz, extraLossDB units.Db) units.Dbm {
	return ClampRSRP(txPowerDBm.SubDb(COST231Hata{}.Loss(d, freqMHz)).SubDb(extraLossDB))
}

// RSRQFromRSRP derives an RSRQ figure from RSRP and a cell-load factor in
// [0,1]. RSRQ = N·RSRP/RSSI; with rising load the interference floor grows
// and RSRQ drops. This compact model keeps RSRQ consistent with RSRP (as
// the paper notes, "conceptually interchangeable [but] no 1:1 mapping",
// §4.1) because load varies independently of RSRP. Prefer RSRQ when the
// co-channel interference power is actually known.
func RSRQFromRSRP(rsrp units.Dbm, load float64) units.Db {
	load = clamp(load, 0, 1)
	// At zero load RSRQ ≈ −3 dB (only reference symbols), at full load the
	// subcarriers are all occupied and RSRQ degrades toward −19.5 dB as
	// RSRP approaches the noise floor.
	weak := (rsrp.V() - RSRPMax) / (RSRPMin - RSRPMax) // 0 strong .. 1 weak
	q := RSRQMax - 7*load - 9.5*weak*load
	return ClampRSRQ(units.Db(q))
}

// NoisePerREMw returns thermal noise power per 15 kHz resource element in
// milliwatts, for a UE noise figure in dB.
func NoisePerREMw(noiseFigureDB float64) float64 {
	return dbmToMw(-174 + 10*math.Log10(15000) + noiseFigureDB)
}

// RSRQ computes reference signal received quality from the serving cell's
// per-RE RSRP and the co-channel interference-plus-noise power per RE
// (mW): RSRQ ≈ −3 dB + 10·log10(x/(x+1)) with x the per-RE SIR. The −3 dB
// ceiling is the unloaded-cell bound; as interference dominates, RSRQ
// tracks SINR and reaches the −19.5 dB floor near −16.5 dB SINR — so the
// paper's full RSRQ threshold range [−19.5, −3] is actually exercised.
func RSRQ(rsrpDBm units.Dbm, intfNoiseMw float64) units.Db {
	if intfNoiseMw <= 0 {
		return RSRQMax
	}
	x := dbmToMw(rsrpDBm.V()) / intfNoiseMw
	return ClampRSRQ(units.Db(-3 + 10*math.Log10(x/(x+1))))
}

// SINRdB converts the same per-RE powers to SINR in dB.
func SINRdB(rsrpDBm units.Dbm, intfNoiseMw float64) float64 {
	if intfNoiseMw <= 0 {
		intfNoiseMw = NoisePerREMw(7)
	}
	return rsrpDBm.V() - 10*math.Log10(intfNoiseMw)
}
