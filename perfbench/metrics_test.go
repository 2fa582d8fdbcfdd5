package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestCheckName(t *testing.T) {
	for _, name := range []string{"wall_s", "netsim.audible_us", "a-b.c_9"} {
		if err := checkName(name); err != nil {
			t.Errorf("%q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"", "wall s", "ms/s", "núm", "a,b", "x\n"} {
		if err := checkName(name); err == nil {
			t.Errorf("%q accepted", name)
		}
	}
	for _, defs := range [][]Def{endToEnd, perLayer} {
		for _, d := range defs {
			if err := checkName(d.Name); err != nil {
				t.Error(err)
			}
		}
	}
}

func TestSetRefusesBadAndUndeclaredNames(t *testing.T) {
	for _, name := range []string{"bad name", "netsim.undeclared"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("set(%q) did not panic", name)
				}
			}()
			Metrics{}.set(name, 1)
		}()
	}
}

// TestMetricsMatchBenchmarkJSON keeps the declared metrics and
// BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		defs []Def
		spec []specMetric
	}{{endToEnd, s.EndToEnd}, {perLayer, s.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Fatalf("%d metrics declared, BENCHMARK.json lists %d", len(c.defs), len(c.spec))
		}
		for i, d := range c.defs {
			if d.Name != c.spec[i].Name || d.Unit != c.spec[i].Unit {
				t.Errorf("metric %d: declared %s [%s], BENCHMARK.json %s [%s]", i, d.Name, d.Unit, c.spec[i].Name, c.spec[i].Unit)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{1.5, 2.5, 10, 11}, [3]float64{1.75, 6.25, 10.75}},
	} {
		if got := quartiles(c.data); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
	if median([]float64{7}) != 7 {
		t.Error("median of one value")
	}
}
