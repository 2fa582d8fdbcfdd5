package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare mode needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// Verdicts of one workload × metric comparison.
const (
	verdictInside     = "inside"     // no worse than the bound allows
	verdictOutside    = "outside"    // worse by more than the bound
	verdictUnresolved = "unresolved" // the old runs spread wider than the bound
	verdictNoBound    = "no-bound"   // per-layer metric: reported, not judged
)

// row is one workload × metric comparison.
type row struct {
	workload, metric string
	old, new         [3]float64 // quartiles
	nOld, nNew       int
	delta            float64 // relative change of the median; positive = worse
	verdict          string
}

// compareMain implements `perfbench compare [-spec BENCHMARK.json] OLD NEW`,
// where OLD and NEW are directories of result files.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] OLD_DIR NEW_DIR")
		return 2
	}
	b, err := os.ReadFile(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	old, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	cur, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	rows, err := compareSets(s, old, cur)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	printRows(os.Stdout, rows)
	for _, r := range rows {
		if r.verdict == verdictOutside {
			return 1
		}
	}
	return 0
}

// compareSets pairs the two result sets workload by workload. Untraced
// results give the end-to-end rows, traced results the per-layer rows.
// It refuses results from different machines, and results whose input
// sizes differ for the same workload and seed.
func compareSets(s benchSpec, old, cur []resultFile) ([]row, error) {
	if err := comparable(old, cur); err != nil {
		return nil, err
	}
	var rows []row
	for _, wl := range workloadsOf(old, cur) {
		for _, group := range []struct {
			traced bool
			defs   []specMetric
		}{{false, s.EndToEnd}, {true, s.PerLayer}} {
			for _, d := range group.defs {
				a := values(old, wl, group.traced, d.Name)
				b := values(cur, wl, group.traced, d.Name)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				rows = append(rows, judge(wl, d, a, b))
			}
		}
	}
	return rows, nil
}

// comparable checks that every result came from one machine setup and
// that a seed run on both sides had the same inputs.
func comparable(old, cur []resultFile) error {
	all := append(append([]resultFile(nil), old...), cur...)
	for _, rf := range all[1:] {
		if rf.Stamp.machineKey() != all[0].Stamp.machineKey() {
			return fmt.Errorf("results come from different machines: %q vs %q", all[0].Stamp.machineKey(), rf.Stamp.machineKey())
		}
	}
	inputs := map[string]string{}
	for _, rf := range old {
		inputs[runKey(rf)] = inputKey(rf.Stamp.Inputs)
	}
	for _, rf := range cur {
		if in, ok := inputs[runKey(rf)]; ok && in != inputKey(rf.Stamp.Inputs) {
			return fmt.Errorf("%s: inputs differ: %s vs %s", runKey(rf), in, inputKey(rf.Stamp.Inputs))
		}
	}
	return nil
}

func runKey(rf resultFile) string {
	return fmt.Sprintf("%s seed %d trace %v", rf.Stamp.Workload, rf.Stamp.Seed, rf.Stamp.Trace)
}

func inputKey(in map[string]float64) string {
	var parts []string
	for _, k := range sortedKeys(in) {
		parts = append(parts, fmt.Sprintf("%s=%g", k, in[k]))
	}
	return strings.Join(parts, ",")
}

func workloadsOf(sets ...[]resultFile) []string {
	seen := map[string]bool{}
	for _, set := range sets {
		for _, rf := range set {
			seen[rf.Stamp.Workload] = true
		}
	}
	return sortedKeys(seen)
}

// values collects one metric over the runs of a workload.
func values(set []resultFile, workload string, traced bool, metric string) []float64 {
	var out []float64
	for _, rf := range set {
		if rf.Stamp.Workload != workload || rf.Stamp.Trace != traced {
			continue
		}
		if v, ok := rf.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge applies the benchmark's rule: the new median may be worse than
// the old by at most the bound. When the old runs' own spread (the
// distance between their quartiles, over their median) exceeds the
// bound, a change cannot be resolved, unless every new run beats every
// old run.
func judge(workload string, d specMetric, a, b []float64) row {
	r := row{workload: workload, metric: d.Name, old: quartiles(a), new: quartiles(b), nOld: len(a), nNew: len(b)}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	r.delta = sign * (r.new[1] - r.old[1]) / math.Abs(r.old[1])
	if r.old[1] == 0 {
		r.delta = sign * (r.new[1] - r.old[1])
	}
	switch {
	case d.Bound == nil:
		r.verdict = verdictNoBound
	case r.old[1] != 0 && (r.old[2]-r.old[0])/math.Abs(r.old[1]) > *d.Bound && !allBetter(a, b, sign):
		r.verdict = verdictUnresolved
	case r.delta > *d.Bound:
		r.verdict = verdictOutside
	default:
		r.verdict = verdictInside
	}
	return r
}

// allBetter reports whether every new value beats every old value.
func allBetter(a, b []float64, sign float64) bool {
	worstNew, bestOld := math.Inf(-1), math.Inf(1)
	for _, v := range b {
		worstNew = math.Max(worstNew, sign*v)
	}
	for _, v := range a {
		bestOld = math.Min(bestOld, sign*v)
	}
	return worstNew < bestOld
}

func printRows(w io.Writer, rows []row) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].workload < rows[j].workload })
	fmt.Fprintf(w, "%-12s %-30s %-36s %-36s %8s  %s\n", "workload", "metric", "old median [q1 q3] (n)", "new median [q1 q3] (n)", "delta", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-30s %-36s %-36s %+7.1f%%  %s\n", r.workload, r.metric,
			fmtQ(r.old, r.nOld), fmtQ(r.new, r.nNew), 100*r.delta, r.verdict)
	}
}

func fmtQ(q [3]float64, n int) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] (%d)", q[1], q[0], q[2], n)
}
