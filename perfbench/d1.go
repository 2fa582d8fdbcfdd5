package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mmlab/internal/analysis"
	"mmlab/internal/carrier"
	"mmlab/internal/dataset"
	"mmlab/internal/experiment"
	"mmlab/internal/netsim"
)

// d1Scale sizes the D1 campaign. Each of the eight carrier×state
// campaigns is bounded below by its first drives, so wall time is flat
// from scale 0.005 to 0.02; 0.01 gives every active campaign a quota
// large enough for a meaningful Fig. 5 event mix.
const d1Scale = 0.01

// d1Campaign is one carrier×state campaign of experiment.BuildD1, in the
// order BuildD1 runs them, with the quota it must fill.
type d1Campaign struct {
	carrier string
	active  bool
	quota   int
}

// Campaign split of the paper's §4 D1 (the shares experiment.BuildD1
// applies): active drives mostly on AT&T and T-Mobile, idle drives over
// all four US carriers. Each campaign's quota is at least 10 records.
var (
	d1Carriers    = []string{"A", "T", "V", "S"}
	d1ActiveShare = map[string]float64{"A": 0.4, "T": 0.4, "V": 0.12, "S": 0.08}
	d1IdleShare   = map[string]float64{"A": 0.3, "T": 0.3, "V": 0.2, "S": 0.2}
)

// d1Plan returns the campaigns of a D1 build at scale, in run order.
func d1Plan(scale float64) []d1Campaign {
	var out []d1Campaign
	for _, acr := range d1Carriers {
		qa := max(int(float64(experiment.PaperActiveHandoffs)*scale*d1ActiveShare[acr]), 10)
		qi := max(int(float64(experiment.PaperIdleHandoffs)*scale*d1IdleShare[acr]), 10)
		out = append(out, d1Campaign{acr, true, qa}, d1Campaign{acr, false, qi})
	}
	return out
}

// d1Workload is the Q2 path behind hosim: the drive campaign, the D1
// file, and the D1 figures.
type d1Workload struct {
	scale float64
	// world and cities shrink the campaign for the layer suite; the
	// workload itself keeps the default world and the paper's cities.
	world  netsim.WorldTuning
	cities []string
	// band holds the Fig. 5 event mix to its band; a campaign with
	// minimum quotas is too small for the band to apply.
	band bool

	plan []d1Campaign
	// records is the D1 size of the last op, for the stamp.
	records int
}

func (w *d1Workload) setup(e *env) error {
	// The campaign's inputs are its plan and the four carriers'
	// configuration generators; BuildD1 makes its own worlds from them.
	for _, acr := range d1Carriers {
		if _, err := carrier.NewGenerator(acr); err != nil {
			return err
		}
	}
	w.plan = d1Plan(w.scale)
	return os.MkdirAll(e.dir, 0o755)
}

func (w *d1Workload) inputs() map[string]float64 {
	return map[string]float64{"scale": w.scale, "campaigns": float64(len(w.plan)), "records": float64(w.records)}
}

func (w *d1Workload) op(e *env, tr *Tracer, root int) (opResult, error) {
	var res opResult
	res.attempted = len(w.plan)
	out := filepath.Join(e.dir, "d1.jsonl")
	defer os.Remove(out) // the next op writes a fresh file

	// Campaign boundaries from Progress: campaigns run one after the
	// other, so the running count crosses each cumulative quota once.
	var campaignS []float64
	bounds := make([]int, 0, len(w.plan))
	acc := 0
	for _, c := range w.plan {
		acc += c.quota
		bounds = append(bounds, acc)
	}
	start := time.Now()
	campStart := start
	buildSpan := tr.Start("experiment.build_d1", root)
	campSpan := tr.Start("experiment.campaign", buildSpan)
	next := 0
	progress := func(done, total int) {
		for next < len(bounds) && done >= bounds[next] {
			now := time.Now()
			campaignS = append(campaignS, now.Sub(campStart).Seconds())
			campStart = now
			if e.rss != nil {
				res.rss = append(res.rss, e.rss.cut())
			}
			tr.End(campSpan)
			next++
			if next < len(bounds) {
				campSpan = tr.Start("experiment.campaign", buildSpan)
			}
		}
	}
	d1, err := experiment.BuildD1(e.ctx, experiment.D1Options{
		Scale: w.scale, Seed: e.seed, Workers: e.workers, Progress: progress,
		Cities: w.cities, World: w.world,
	})
	tr.End(campSpan)
	tr.End(buildSpan)
	produced := time.Since(start).Seconds()
	if err != nil {
		return res, fmt.Errorf("d1: build: %w", err)
	}
	w.records = len(d1.Records)

	var writeMs, figsMs float64
	t := time.Now()
	tr.Do("dataset.write_d1", root, func(int) { err = writeFile(out, func(f *bufio.Writer) error { return dataset.WriteD1(f, d1.Records) }) })
	writeMs = msSince(t)
	if err != nil {
		return res, fmt.Errorf("d1: write: %w", err)
	}
	t = time.Now()
	var figs string
	tr.Do("analysis.d1_figs", root, func(int) { figs = d1Figures(d1) })
	figsMs = msSince(t)
	if err := os.WriteFile(filepath.Join(e.dir, "d1_figures.txt"), []byte(figs), 0o644); err != nil {
		return res, fmt.Errorf("d1: figures: %w", err)
	}
	tr.Do("bench.check", root, func(int) { res.failed, res.problems = checkD1(d1, w.plan, w.band) })
	res.wall = time.Since(start).Seconds()
	res.records = float64(len(d1.Records))
	res.produceS = produced
	if tr != nil { // a traced run reports per-layer metrics only
		res.layer = Metrics{}
		res.layer.set("experiment.campaign_s", median(campaignS))
		res.layer.set("dataset.write_d1_ms", writeMs)
		res.layer.set("analysis.d1_figs_ms", figsMs)
		return res, nil
	}
	// One op per run: its only drain samples, so they get a long window.
	res.drain, err = drainTime(e.dir, 3*time.Second, func(path string) error {
		return writeFile(path, func(f *bufio.Writer) error { return dataset.WriteD1(f, d1.Records) })
	})
	if err != nil {
		return res, fmt.Errorf("d1: drain: %w", err)
	}
	return res, nil
}

// d1Figures renders the D1 figures exactly as the figures command calls
// them.
func d1Figures(d1 *dataset.D1) string {
	var b strings.Builder
	b.WriteString(analysis.RenderFig5(analysis.Fig5(d1, "A", "T")))
	b.WriteString(analysis.RenderFig6(analysis.Fig6(d1, "A")))
	b.WriteString(analysis.RenderFig9(analysis.Fig9(d1, "A", "RSRP")))
	b.WriteString(analysis.RenderFig9(analysis.Fig9(d1, "T", "RSRP")))
	b.WriteString(analysis.RenderFig10(analysis.Fig10(d1)))
	fmt.Fprintf(&b, "decisive report→handoff latency (ms): %s\n", analysis.DecisiveLatency(d1))
	return b.String()
}
