package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// Def names one metric and its unit.
type Def struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run, reported by every
// workload. BENCHMARK.json lists the same names and units.
var endToEnd = []Def{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"records_per_s", "1/s"},
	{"drain_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, reported by every workload:
// from the workload's own traced pass where it calls into the layer, and
// from the layer suite otherwise (README.md, "Where each number comes
// from").
var perLayer = []Def{
	{"carrier.config_us", "us"},
	{"carrier.configs", "count"},
	{"carrier.build_fleet_ms", "ms"},
	{"netsim.build_world_ms", "ms"},
	{"netsim.cells_per_world", "count"},
	{"netsim.drive_ms_per_sim_s", "ms/s"},
	{"netsim.handoffs_per_drive", "count"},
	{"netsim.audible_us", "us"},
	{"netsim.audible_cells", "count"},
	{"netsim.rsrp_ns", "ns"},
	{"radio.shadow_at_ns", "ns"},
	{"radio.pathloss_ns", "ns"},
	{"geo.within_radius_ns", "ns"},
	{"geo.within_radius_hits", "count"},
	{"core.observe_ns", "ns"},
	{"core.reports", "count"},
	{"experiment.campaign_s", "s"},
	{"sib.broadcast_us", "us"},
	{"sib.diag_write_mb_s", "MB/s"},
	{"sib.scan_mb_s", "MB/s"},
	{"sib.stream_scan_mb_s", "MB/s"},
	{"crawler.crawl_fleet_s", "s"},
	{"crawler.parse_mb_s", "MB/s"},
	{"crawler.snapshots", "count"},
	{"crawler.stream_feed_ns", "ns"},
	{"dataset.write_d1_ms", "ms"},
	{"dataset.write_d2_mb_s", "MB/s"},
	{"dataset.read_d2_mb_s", "MB/s"},
	{"dataset.d2_bytes", "bytes"},
	{"analysis.d1_figs_ms", "ms"},
	{"analysis.d2_figs_ms", "ms"},
	{"pipeline.frame_read_mb_s", "MB/s"},
	{"pipeline.build_checkpoint_ms", "ms"},
	{"pipeline.encode_checkpoint_ms", "ms"},
	{"pipeline.checkpoint_mb", "MB"},
	{"pipeline.reference_ms", "ms"},
	{"pipeline.shard_queue_max", "count"},
	{"pipeline.agg_queue_max", "count"},
	{"pipeline.drops", "count"},
	{"pipeline.resyncs", "count"},
	{"feeder.reconnects", "count"},
	{"feeder.rewinds", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_share", "ratio"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkName rejects metric names outside [A-Za-z0-9_.-]+.
func checkName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("metric name %q: want [A-Za-z0-9_.-]+", name)
	}
	return nil
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics holds the values of one run, keyed by name.
type Metrics map[string]Value

// set records a metric, refusing names outside the allowed alphabet or
// without a known unit.
func (m Metrics) set(name string, v float64) {
	if err := checkName(name); err != nil {
		panic(err) // metric names are constants of this program
	}
	unit, ok := unitOf(name)
	if !ok {
		panic(fmt.Sprintf("metric %q is not declared", name))
	}
	m[name] = Value{Value: v, Unit: unit}
}

// has reports whether name was already measured.
func (m Metrics) has(name string) bool {
	_, ok := m[name]
	return ok
}

func unitOf(name string) (string, bool) {
	for _, defs := range [][]Def{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit, true
			}
		}
	}
	return "", false
}

// missing lists the defs that m lacks, in declaration order.
func (m Metrics) missing(defs []Def) []string {
	var out []string
	for _, d := range defs {
		if !m.has(d.Name) {
			out = append(out, d.Name)
		}
	}
	return out
}

// only returns the subset of m named in defs.
func (m Metrics) only(defs []Def) Metrics {
	out := Metrics{}
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			out[d.Name] = v
		}
	}
	return out
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the first quartile, median, and third quartile of
// xs with the "exclusive" method of Python's statistics.quantiles(n=4),
// which is what the benchmark's acceptance rule uses. With fewer than
// two values every quartile is the single value (NaN when empty).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
