package radio

import "math"

// Link parameters of a 10 MHz LTE macro cell.
const (
	bandwidthHz  = 10e6 // cell bandwidth
	alpha        = 0.7  // implementation-loss factor
	maxSpectral  = 4.8  // bits/s/Hz cap: 64QAM 0.93
	overheadFrac = 0.25 // control/reference overhead fraction
)

// Throughput returns the achievable downlink throughput in bits/s of a
// lone greedy user at the given SINR in dB, for the Type-II performance
// experiments (paper §4.1, Figs. 7–8). It follows the standard
// attenuated-Shannon form used in LTE system-level simulators: spectral
// efficiency η = min(η_max, α·log2(1+SINR)), capped by the highest
// modulation-and-coding scheme.
func Throughput(sinrDB float64) float64 {
	sinr := math.Pow(10, sinrDB/10)
	eta := alpha * math.Log2(1+sinr)
	if eta > maxSpectral {
		eta = maxSpectral
	}
	if eta < 0 {
		eta = 0
	}
	return eta * bandwidthHz * (1 - overheadFrac)
}

func dbmToMw(dbm float64) float64 { return math.Pow(10, dbm/10) }

// DBmToMw converts dBm to milliwatts.
func DBmToMw(dbm float64) float64 { return dbmToMw(dbm) }
