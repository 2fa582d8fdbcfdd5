package carrier

import (
	"math"
	"testing"

	"mmlab/internal/config"
	"mmlab/internal/rng"
)

func TestRegistryMatchesTable3(t *testing.T) {
	if got := len(All()); got != 30 {
		t.Errorf("registry size = %d, want 30 carriers", got)
	}
	if got := len(Countries()); got != 15 {
		t.Errorf("countries = %d, want 15", len(Countries()))
	}
	// Table 3's named carriers must exist with the right countries.
	want := map[string]string{
		"A": "US", "T": "US", "V": "US", "S": "US",
		"CM": "CN", "CU": "CN", "CT": "CN",
		"KT": "KR", "SK": "KR",
		"ST": "SG", "SI": "SG", "MO": "SG",
		"TH": "HK", "CH": "HK",
		"CW": "TW", "TC": "TW",
		"NC": "NO",
	}
	for a, country := range want {
		c, ok := ByAcronym(a)
		if !ok {
			t.Errorf("carrier %s missing", a)
			continue
		}
		if c.Country != country {
			t.Errorf("carrier %s country = %s, want %s", a, c.Country, country)
		}
	}
	if _, ok := ByAcronym("ZZ"); ok {
		t.Error("unknown acronym should not resolve")
	}
}

func TestRegistryAcronymsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range All() {
		if seen[c.Acronym] {
			t.Errorf("duplicate acronym %s", c.Acronym)
		}
		seen[c.Acronym] = true
		if len(c.RATs) == 0 || c.CellShare <= 0 {
			t.Errorf("carrier %s malformed: %+v", c.Acronym, c)
		}
	}
}

func TestCDMAFamilyOnlyWhereExpected(t *testing.T) {
	// "EVDO/CDMA1x are only observed in Verizon, Sprint and China Telecom".
	for _, c := range All() {
		hasCDMA := c.HasRAT(config.RATEVDO) || c.HasRAT(config.RATCDMA1x)
		expect := c.Acronym == "V" || c.Acronym == "S" || c.Acronym == "CT"
		if hasCDMA != expect {
			t.Errorf("carrier %s CDMA family = %v, want %v", c.Acronym, hasCDMA, expect)
		}
	}
}

func TestUSCities(t *testing.T) {
	if len(USCities) != 5 {
		t.Fatalf("USCities = %d", len(USCities))
	}
	// Fig. 20 cell totals.
	want := []int{4671, 2982, 2348, 1268, 745}
	for i, c := range USCities {
		if c.Cells != want[i] {
			t.Errorf("%s cells = %d, want %d", c.Code, c.Cells, want[i])
		}
	}
}

func TestHasRATAndString(t *testing.T) {
	a, _ := ByAcronym("A")
	if !a.HasRAT(config.RATLTE) || a.HasRAT(config.RATEVDO) {
		t.Error("AT&T RAT stack wrong")
	}
	if a.String() == "" {
		t.Error("String empty")
	}
}

func TestPoolPick(t *testing.T) {
	p := NewPool([]float64{1, 2}, []float64{3, 1})
	rng := rng.New(7)
	counts := map[float64]int{}
	for i := 0; i < 10000; i++ {
		counts[p.Pick(rng)]++
	}
	frac1 := float64(counts[1]) / 10000
	if math.Abs(frac1-0.75) > 0.03 {
		t.Errorf("weighted pick share = %v, want ~0.75", frac1)
	}
}

func TestPoolDeterministic(t *testing.T) {
	p := Uniform(1, 2, 3, 4, 5)
	a := p.Pick(rng.New(42))
	b := p.Pick(rng.New(42))
	if a != b {
		t.Error("same seed must give same pick")
	}
}

func TestPoolConstructors(t *testing.T) {
	if !Single(4).IsSingle() {
		t.Error("Single should be single")
	}
	d := Dominated(3, 0.9, 1, 2)
	if d.IsSingle() || len(d.Values) != 3 {
		t.Errorf("Dominated malformed: %+v", d)
	}
	rng := rng.New(1)
	n3 := 0
	for i := 0; i < 5000; i++ {
		if d.Pick(rng) == 3 {
			n3++
		}
	}
	if f := float64(n3) / 5000; math.Abs(f-0.9) > 0.03 {
		t.Errorf("dominant share = %v, want ~0.9", f)
	}
}

func TestPoolPanicsOnMalformed(t *testing.T) {
	for _, fn := range []func(){
		func() { NewPool(nil, nil) },
		func() { NewPool([]float64{1}, []float64{1, 2}) },
		func() { NewPool([]float64{1}, []float64{-1}) },
		func() { NewPool([]float64{1}, []float64{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("malformed pool should panic")
				}
			}()
			fn()
		}()
	}
}

func TestSeedForStable(t *testing.T) {
	if seedFor("a", "b") != seedFor("a", "b") {
		t.Error("seedFor not stable")
	}
	if seedFor("a", "b") == seedFor("ab", "") || seedFor("a", "b") == seedFor("b", "a") {
		t.Error("seedFor collisions on distinct part lists")
	}
	if seedWith("x", 1, 2) == seedWith("x", 2, 1) {
		t.Error("seedWith should be order-sensitive")
	}
}

func TestLTEBandMapping(t *testing.T) {
	tests := []struct {
		earfcn uint32
		band   int
	}{
		{850, 2}, {1975, 4}, {2000, 4}, {5110, 12}, {5230, 13},
		{5780, 17}, {9820, 30}, {38000, 38}, {39000, 40}, {99999, 0},
	}
	for _, tt := range tests {
		if got := LTEBand(tt.earfcn); got != tt.band {
			t.Errorf("LTEBand(%d) = %d, want %d", tt.earfcn, got, tt.band)
		}
	}
}

func TestFreqMHz(t *testing.T) {
	// Band 17: 734 + 0.1*(5780-5730) = 739 MHz.
	if got := FreqMHz(config.RATLTE, 5780); math.Abs(got.V()-739) > 0.01 {
		t.Errorf("FreqMHz(LTE,5780) = %v, want 739", got)
	}
	// Band 30: 2350 + 0.1*(9820-9770) = 2355 MHz.
	if got := FreqMHz(config.RATLTE, 9820); math.Abs(got.V()-2355) > 0.01 {
		t.Errorf("FreqMHz(LTE,9820) = %v, want 2355", got)
	}
	// UMTS UARFCN 4435 → 887? DL = 4435/5 = 887 MHz... general formula.
	if got := FreqMHz(config.RATUMTS, 10562); math.Abs(got.V()-2112.4) > 0.01 {
		t.Errorf("FreqMHz(UMTS,10562) = %v, want 2112.4", got)
	}
	// GSM-850 ARFCN 128 → 869 MHz.
	if got := FreqMHz(config.RATGSM, 128); got != 869 {
		t.Errorf("FreqMHz(GSM,128) = %v", got)
	}
	// Unknown LTE channel falls back.
	if got := FreqMHz(config.RATLTE, 50000); got != 1900 {
		t.Errorf("fallback = %v", got)
	}
	// Frequencies must be positive and sane everywhere we deploy.
	for _, c := range All() {
		plan := PlanFor(c)
		for rat, uses := range plan.Channels {
			for _, cu := range uses {
				f := FreqMHz(rat, cu.EARFCN)
				if f < 400 || f > 4000 {
					t.Errorf("%s %s ch %d → %v MHz out of range", c.Acronym, rat, cu.EARFCN, f)
				}
			}
		}
	}
}

func TestATTBandPlanHas24PlusChannels(t *testing.T) {
	a, _ := ByAcronym("A")
	plan := PlanFor(a)
	if n := len(plan.Channels[config.RATLTE]); n < 24 {
		t.Errorf("AT&T LTE channels = %d, want >= 24 (paper §5.4.1)", n)
	}
}
