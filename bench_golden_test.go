package mmlab

import (
	"encoding/json"
	"os"
	"testing"
)

// benchGoldenConfigs maps each committed BENCH_*.json campaign golden to
// the audibility radius that produced it: 1.5×ISD for the country profile
// and the seed's fixed 4×ISD. The seed golden was recorded on the seed's
// linear-scan, fixed-step path; the single indexed path must reproduce
// it. Both run the default campaign: 10000-cell arena, carrier A, 8 UEs,
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
	if *countryCells != 10000 || *countryUEs != 8 || *countryDurS != 30 ||
		*countryRadius != 0 {
		t.Skip("country flags overridden; the BENCH goldens pin the default config")
	}
	for _, tc := range benchGoldenConfigs {
		t.Run(tc.file, func(t *testing.T) {
			cells, handoffs := benchGoldenCampaign(t, tc.file)
			w := countryWorldAt(t, tc.radius)
			if got := len(w.Cells); got != cells {
				t.Errorf("%s: world has %d cells, golden %s recorded %d", tc.profile, got, tc.file, cells)
			}
			if got := runCountryCampaign(w, int64(*countryDurS)*1000, *countryUEs); got != handoffs {
				t.Errorf("%s: campaign produced %d handoffs, golden %s recorded %d", tc.profile, got, tc.file, handoffs)
			}
		})
	}
}

// benchGoldenCampaign reads the cells and handoffs metrics of
// BenchmarkCountryCampaign from a bench2json golden.
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
