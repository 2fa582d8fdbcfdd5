package mmlab

// Country-scale hot-path benchmarks (ROADMAP: "Discrete-event core +
// spatial cell indexing → country-scale worlds"). These size a world by
// cell count rather than by paper-dataset fraction and drive UEs across
// it, so the O(cells)→O(density) cost of the grid-indexed hot path is
// measured directly. The -country.* flags scale the scenario up to 10⁵
// cells / 10⁴ UEs:
//
//	go test -run '^$' -bench 'BenchmarkCountry' -benchmem \
//	    -country.cells 100000 -country.ues 10000
//
// The default audibility radius is the country profile, 1.5×ISD: the
// serving tier plus the surrounding ring stay audible, ~24 cells.
// -country.radius 2800 (4×ISD) is the seed's fixed audibility, the only
// configuration the seed could run; TestCountryCampaignMatchesBenchGoldens
// re-runs both radii against the committed BENCH_pr6.json and
// BENCH_seed.json. BENCH_linear.json and BENCH_index.json record the
// retired linear-scan + tick-loop path against the indexed one at the
// same 1.5×ISD radius, on one host in one sitting.
//
// See `./verify.sh bench`.

import (
	"flag"
	"math"
	"testing"

	"mmlab/internal/carrier"
	"mmlab/internal/geo"
	"mmlab/internal/mobility"
	"mmlab/internal/netsim"
	"mmlab/internal/sim"
	"mmlab/internal/traffic"
)

var (
	countryCells  = flag.Int("country.cells", 10000, "target cell count for the country-world benches")
	countryUEs    = flag.Int("country.ues", 8, "drive runs per BenchmarkCountryCampaign iteration")
	countryDurS   = flag.Int("country.dur", 30, "simulated seconds per drive run")
	countryRadius = flag.Float64("country.radius", 0, "audibility radius in meters (0: 1.5×ISD)")
)

// countryISD is the bench arena's inter-site distance in meters.
const countryISD = 700.0

// countryWorld builds a square arena sized so a 3-layer deployment lands
// near -country.cells sites. The default audibility radius is 1.5×ISD:
// at country density a UE hears the surrounding ring of sites, not 50
// towers.
func countryWorld(b *testing.B) *netsim.World {
	b.Helper()
	radius := *countryRadius
	if radius == 0 {
		radius = 1.5 * countryISD
	}
	return countryWorldAt(b, radius)
}

// countryWorldAt builds the arena at an explicit radius, shared by the
// benches (flag-driven) and the BENCH-golden determinism test (pinned
// configs).
func countryWorldAt(tb testing.TB, radius float64) *netsim.World {
	tb.Helper()
	rowStep := countryISD * math.Sqrt(3) / 2
	side := math.Sqrt(float64(*countryCells)/3*countryISD*rowStep) - 2*countryISD
	gen, err := carrier.NewGenerator("A")
	if err != nil {
		tb.Fatal(err)
	}
	region := geo.NewRect(geo.Pt(0, 0), geo.Pt(side, side))
	return netsim.BuildWorld(gen, region, netsim.WorldOpts{
		Seed:          benchSeed,
		LTELayers:     3,
		ISD:           countryISD,
		MeasureRadius: radius,
	})
}

// countryStart scatters UE j deterministically over the arena interior
// (golden-ratio low-discrepancy sequence), away from edges so every run
// starts under coverage.
func countryStart(region geo.Rect, j int) geo.Point {
	fx := math.Mod(float64(j)*0.61803398874989485, 1)
	fy := math.Mod(float64(j)*0.38196601125010515+0.5/float64(j+1), 1)
	return geo.Pt(
		region.Min.X+(0.05+0.9*fx)*region.Width(),
		region.Min.Y+(0.05+0.9*fy)*region.Height(),
	)
}

// runCountryCampaign executes one campaign iteration — ues highway
// drives of durMs simulated milliseconds each — and returns the total
// handoff count, the metric the BENCH_* goldens pin.
func runCountryCampaign(w *netsim.World, durMs int64, ues int) int {
	handoffs := 0
	for j := 0; j < ues; j++ {
		move := mobility.NewLinear(countryStart(w.Region, j), float64(j%8)*math.Pi/4, 100)
		res := netsim.RunDrive(w, move, durMs, netsim.UEOpts{
			Seed:   sim.DeriveSeed(benchSeed, j),
			Active: true,
			App:    traffic.Speedtest{},
		})
		handoffs += len(res.Handoffs)
	}
	return handoffs
}

// BenchmarkCountryCampaign is the headline bench: -country.ues highway
// drives of -country.dur simulated seconds each, per iteration, across
// one shared country-scale world.
func BenchmarkCountryCampaign(b *testing.B) {
	w := countryWorld(b)
	durMs := int64(*countryDurS) * 1000
	b.ResetTimer()
	handoffs := 0
	for i := 0; i < b.N; i++ {
		handoffs += runCountryCampaign(w, durMs, *countryUEs)
	}
	b.ReportMetric(float64(len(w.Cells)), "cells")
	b.ReportMetric(float64(*countryUEs), "ues")
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs")
}

// BenchmarkCountryAudible isolates the audibility query: one probe, one
// lookup per iteration at positions scattered over the arena.
func BenchmarkCountryAudible(b *testing.B) {
	w := countryWorld(b)
	probe := w.NewProbe()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(probe.AudibleScored(countryStart(w.Region, i)))
	}
	b.ReportMetric(float64(len(w.Cells)), "cells")
	b.ReportMetric(float64(n)/float64(b.N), "audible")
}
