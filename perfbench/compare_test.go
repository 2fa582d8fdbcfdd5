package main

import (
	"strings"
	"testing"
)

func resultOf(workload string, seed int64, traced bool, cpu string, metrics map[string]float64) resultFile {
	m := Metrics{}
	for k, v := range metrics {
		m[k] = Value{Value: v}
	}
	return resultFile{
		Stamp:  Stamp{Workload: workload, Seed: seed, Trace: traced, CPUModel: cpu, Inputs: map[string]float64{"records": 10}},
		Result: result{Metrics: m},
	}
}

func runs(workload string, cpu, metric string, vals ...float64) []resultFile {
	var out []resultFile
	for i, v := range vals {
		out = append(out, resultOf(workload, int64(i+1), false, cpu, map[string]float64{metric: v}))
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	spec := benchSpec{EndToEnd: []specMetric{
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: &bound},
		{Name: "records_per_s", Unit: "1/s", Better: "higher", Bound: &bound},
	}}
	old := runs("d2-crawl", "cpu", "wall_s", 10, 10.1, 9.9, 10, 10.05)
	for _, c := range []struct {
		name string
		new  []resultFile
		want string
	}{
		{"same", runs("d2-crawl", "cpu", "wall_s", 10, 10.2, 9.8, 10.1, 9.95), verdictInside},
		{"faster", runs("d2-crawl", "cpu", "wall_s", 7, 7.1, 6.9, 7, 7.05), verdictInside},
		{"slower", runs("d2-crawl", "cpu", "wall_s", 12, 12.1, 11.9, 12, 12.05), verdictOutside},
	} {
		rows, err := compareSets(spec, old, c.new)
		if err != nil || len(rows) != 1 {
			t.Fatalf("%s: rows %v, err %v", c.name, rows, err)
		}
		if rows[0].verdict != c.want {
			t.Errorf("%s: verdict %s (delta %.3f), want %s", c.name, rows[0].verdict, rows[0].delta, c.want)
		}
	}

	// Throughput: higher is better, so a drop is the regression.
	oldRate := runs("ingest", "cpu", "records_per_s", 100, 101, 99, 100)
	rows, _ := compareSets(spec, oldRate, runs("ingest", "cpu", "records_per_s", 80, 81, 79, 80))
	if rows[0].verdict != verdictOutside || rows[0].delta <= 0 {
		t.Errorf("throughput drop: %+v", rows[0])
	}

	// Old runs spread wider than the bound: unresolved, unless every new
	// run beats every old run.
	noisy := runs("d1-campaign", "cpu", "wall_s", 10, 14, 8, 12, 9, 13)
	rows, _ = compareSets(spec, noisy, runs("d1-campaign", "cpu", "wall_s", 11, 12, 10.5, 11.5))
	if rows[0].verdict != verdictUnresolved {
		t.Errorf("noisy: %s, want unresolved", rows[0].verdict)
	}
	rows, _ = compareSets(spec, noisy, runs("d1-campaign", "cpu", "wall_s", 5, 5.5, 6))
	if rows[0].verdict != verdictInside {
		t.Errorf("noisy but all better: %s, want inside", rows[0].verdict)
	}
}

func TestCompareRefusesOtherMachinesAndInputs(t *testing.T) {
	bound := 0.1
	spec := benchSpec{EndToEnd: []specMetric{{Name: "wall_s", Better: "lower", Bound: &bound}}}
	old := runs("d2-crawl", "cpu-a", "wall_s", 1, 1)
	if _, err := compareSets(spec, old, runs("d2-crawl", "cpu-b", "wall_s", 1, 1)); err == nil || !strings.Contains(err.Error(), "machines") {
		t.Errorf("different CPUs compared: %v", err)
	}
	bigger := runs("d2-crawl", "cpu-a", "wall_s", 1, 1)
	bigger[0].Stamp.Inputs = map[string]float64{"records": 20}
	if _, err := compareSets(spec, old, bigger); err == nil || !strings.Contains(err.Error(), "inputs differ") {
		t.Errorf("different input sizes compared: %v", err)
	}
}
