package mmlab

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"mmlab/internal/carrier"
	"mmlab/internal/geo"
	"mmlab/internal/mobility"
	"mmlab/internal/netsim"
	"mmlab/internal/sim"
	"mmlab/internal/traffic"
)

// countryISD is the golden arena's inter-site distance in meters.
const countryISD = 700.0

// benchGoldenConfigs maps each committed BENCH_*.json campaign golden to
// the audibility radius that produced it: 1.5×ISD for the country profile
// and the seed's fixed 4×ISD. The seed golden was recorded on the seed's
// linear-scan, fixed-step path; the single indexed path must reproduce
// it. Both run the same campaign: 10000-cell arena, carrier A, 8 UEs,
// 30 simulated seconds, benchSeed.
var benchGoldenConfigs = []struct {
	file    string
	radius  float64
	profile string
}{
	{"BENCH_pr6.json", 1.5 * countryISD, "country profile"},
	{"BENCH_seed.json", 4 * countryISD, "seed profile"},
}

// TestCountryCampaignMatchesBenchGoldens proves the hot path's history
// (the typed-units migration, the retired linear-scan and fixed-step
// drivers) left runtime behavior alone: re-running the BENCH campaign
// configuration must reproduce the committed goldens' cell and handoff
// counts exactly. A drift of even one handoff breaks the
// byte-identical-outputs contract.
func TestCountryCampaignMatchesBenchGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("country-scale campaign; skipped with -short")
	}
	for _, tc := range benchGoldenConfigs {
		t.Run(tc.file, func(t *testing.T) {
			cells, handoffs := benchGoldenCampaign(t, tc.file)
			w := countryWorldAt(t, tc.radius)
			if got := len(w.Cells); got != cells {
				t.Errorf("%s: world has %d cells, golden %s recorded %d", tc.profile, got, tc.file, cells)
			}
			if got := runCountryCampaign(w, 30_000, 8); got != handoffs {
				t.Errorf("%s: campaign produced %d handoffs, golden %s recorded %d", tc.profile, got, tc.file, handoffs)
			}
		})
	}
}

// countryWorldAt builds a square arena sized so a 3-layer deployment of
// carrier A lands near 10000 sites, with the given audibility radius.
func countryWorldAt(t *testing.T, radius float64) *netsim.World {
	t.Helper()
	rowStep := countryISD * math.Sqrt(3) / 2
	side := math.Sqrt(10000.0/3*countryISD*rowStep) - 2*countryISD
	gen, err := carrier.NewGenerator("A")
	if err != nil {
		t.Fatal(err)
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

// runCountryCampaign runs ues highway drives of durMs simulated
// milliseconds each and returns the total handoff count, the metric the
// BENCH_* goldens pin.
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

// benchGoldenCampaign reads the cells and handoffs metrics of the
// BenchmarkCountryCampaign result recorded in a BENCH_*.json golden.
func benchGoldenCampaign(t *testing.T, path string) (cells, handoffs int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, r := range doc.Results {
		if r.Name != "BenchmarkCountryCampaign" {
			continue
		}
		c, cok := r.Metrics["cells"]
		h, hok := r.Metrics["handoffs"]
		if !cok || !hok {
			t.Fatalf("%s: BenchmarkCountryCampaign lacks cells/handoffs metrics", path)
		}
		return int(c), int(h)
	}
	t.Fatalf("%s: no BenchmarkCountryCampaign result", path)
	return 0, 0
}
