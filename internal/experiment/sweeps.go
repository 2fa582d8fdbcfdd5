package experiment

import (
	"context"
	"fmt"

	"mmlab/internal/carrier"
	"mmlab/internal/config"
	"mmlab/internal/netsim"
	"mmlab/internal/sim"
	"mmlab/internal/stats"
	"mmlab/internal/traffic"
	"mmlab/internal/units"
)

// Fig7Series is one run's throughput timeline around its first A3
// handoff, aligned so the decisive report sits at AlignMs.
type Fig7Series struct {
	OffsetDB     float64
	AlignMs      int64 // position of the decisive report in the series
	Bins100ms    []float64
	Bins1s       []float64
	ReportTime   int64
	HandoffTime  int64
	MinThptBps   float64 // mean of per-A3-handoff min pre-report throughput over the run
	HandoffGapMs int64
	A3Handoffs   int
}

// fig7Run drives one offset's timeline. Both offsets share the world and
// UE seeds, so the two series differ only in the configured ΔA3.
func fig7Run(off units.Db, seed int64) (Fig7Series, error) {
	w, err := worldFor("T", seed)
	if err != nil {
		return Fig7Series{}, err
	}
	netsim.OverridePrimaryEvent(w, config.EventConfig{
		Type: config.EventA3, Quantity: config.RSRP, Offset: off, Hysteresis: units.Db(1),
		TimeToTriggerMs: units.Millis(320), ReportIntervalMs: units.Millis(240), MaxReportCells: 4,
	})
	route := netsim.RowRoute(w, 50, 40)
	res := netsim.RunDrive(w, route, route.Duration(), netsim.UEOpts{
		Seed: seed * 13, Active: true, App: traffic.Speedtest{},
	})
	s := Fig7Series{OffsetDB: off.V()}
	sum := 0.0
	for _, h := range res.Handoffs {
		if h.Event != config.EventA3 {
			continue
		}
		if s.A3Handoffs == 0 {
			s.ReportTime = h.ReportTime
			s.HandoffTime = h.Time
			s.HandoffGapMs = h.Time - h.ReportTime
		}
		s.A3Handoffs++
		if h.MinThptBefore >= 0 {
			sum += h.MinThptBefore
		}
	}
	if s.A3Handoffs > 0 {
		s.MinThptBps = sum / float64(s.A3Handoffs)
	}
	// Window: 25 s before the report to 15 s after (the paper aligns
	// the report at t = 25 s of a 40 s window).
	lo := s.ReportTime - 25000
	hi := s.ReportTime + 15000
	for _, b := range res.Thpt {
		if b.Time >= lo && b.Time < hi {
			s.Bins100ms = append(s.Bins100ms, b.Bps)
		}
	}
	for j := 0; j+10 <= len(s.Bins100ms); j += 10 {
		sum := 0.0
		for k := 0; k < 10; k++ {
			sum += s.Bins100ms[j+k]
		}
		s.Bins1s = append(s.Bins1s, sum/10)
	}
	s.AlignMs = 25000
	return s, nil
}

// Fig7 reproduces the two-timeline experiment: identical route and world,
// ΔA3 = 5 dB vs 12 dB, throughput traced in 1 s and 100 ms bins (§4.1).
// The two drives run as parallel sim jobs.
func Fig7(ctx context.Context, seed int64, workers int) ([2]Fig7Series, error) {
	offsets := []units.Db{5, 12}
	var out [2]Fig7Series
	series, err := sim.Run(ctx, sim.Options{Workers: workers}, len(offsets),
		func(_ context.Context, i int) (Fig7Series, error) {
			return fig7Run(offsets[i], seed)
		})
	if err != nil {
		return out, err
	}
	copy(out[:], series)
	return out, nil
}

// ConfigCase labels one reporting configuration of the Fig. 8 comparison.
type ConfigCase struct {
	Label   string
	Carrier string
	Event   config.EventConfig
}

// Fig8Cases returns the paper's labeled configurations: AT&T's A5a–A5d
// and A3 (Fig. 8a), T-Mobile's A3a/A3b/A5a/A5b/P (Fig. 8b).
func Fig8Cases() []ConfigCase {
	a5 := func(q config.Quantity, t1, t2 units.Dbm) config.EventConfig {
		return config.EventConfig{Type: config.EventA5, Quantity: q,
			Threshold1: t1, Threshold2: t2, Hysteresis: units.Db(1),
			TimeToTriggerMs: units.Millis(320), ReportIntervalMs: units.Millis(240), MaxReportCells: 4}
	}
	a3 := func(off units.Db) config.EventConfig {
		return config.EventConfig{Type: config.EventA3, Quantity: config.RSRP,
			Offset: off, Hysteresis: units.Db(1),
			TimeToTriggerMs: units.Millis(320), ReportIntervalMs: units.Millis(240), MaxReportCells: 4}
	}
	return []ConfigCase{
		// AT&T (Fig. 8a): ΘA5,S = −44 relaxes the serving requirement and
		// enables early handoffs; −118 defers them.
		{"A5a", "A", a5(config.RSRP, units.Dbm(-44), units.Dbm(-114))},
		{"A5b", "A", a5(config.RSRP, units.Dbm(-118), units.Dbm(-114))},
		{"A5c", "A", a5(config.RSRQ, units.Dbm(-16), units.Dbm(-15))},
		{"A5d", "A", a5(config.RSRQ, units.Dbm(-18), units.Dbm(-15))},
		{"A3", "A", a3(units.Db(3))},
		// T-Mobile (Fig. 8b).
		{"A3a", "T", a3(units.Db(12))},
		{"A3b", "T", a3(units.Db(5))},
		{"A5a", "T", a5(config.RSRP, units.Dbm(-87), units.Dbm(-110))},
		{"A5b", "T", a5(config.RSRP, units.Dbm(-121), units.Dbm(-110))},
		{"P", "T", config.EventConfig{Type: config.EventPeriodic, Quantity: config.RSRP,
			ReportIntervalMs: units.Millis(2048), MaxReportCells: 4}},
	}
}

// Fig8Result is one configuration's handoff-quality statistics.
type Fig8Result struct {
	Case     ConfigCase
	Handoffs int
	MinThpt  stats.Boxplot // bps, min pre-report throughput per handoff
}

// fig8Run drives one (case, run) pair and reports its handoff count and
// min-throughput samples.
type fig8Run struct {
	mins []float64
	n    int
}

// Fig8 sweeps the labeled configurations over identical drive scenarios.
// runs controls how many (world, route) pairs each case sees; the
// cases × runs grid executes as one flat sim campaign, merged in
// (case, run) order.
func Fig8(ctx context.Context, seed int64, runs, workers int) ([]Fig8Result, error) {
	if runs <= 0 {
		runs = 3
	}
	cases := Fig8Cases()
	grid, err := sim.Run(ctx, sim.Options{Workers: workers}, len(cases)*runs,
		func(_ context.Context, i int) (fig8Run, error) {
			cs, r := cases[i/runs], i%runs
			w, err := worldFor(cs.Carrier, seed+int64(r)*271)
			if err != nil {
				return fig8Run{}, err
			}
			netsim.OverridePrimaryEvent(w, cs.Event)
			route := netsim.RowRoute(w, 50, 40)
			res := netsim.RunDrive(w, route, route.Duration(), netsim.UEOpts{
				Seed: seed*11 + int64(r), Active: true, App: traffic.Speedtest{},
			})
			var out fig8Run
			for _, h := range res.Handoffs {
				if h.Event != cs.Event.Type {
					continue
				}
				out.n++
				if h.MinThptBefore >= 0 {
					out.mins = append(out.mins, h.MinThptBefore)
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	var out []Fig8Result
	for ci, cs := range cases {
		var mins []float64
		n := 0
		for r := 0; r < runs; r++ {
			g := grid[ci*runs+r]
			n += g.n
			mins = append(mins, g.mins...)
		}
		out = append(out, Fig8Result{Case: cs, Handoffs: n, MinThpt: stats.NewBoxplot(mins)})
	}
	return out, nil
}

// AblationResult compares handoff dynamics across one design knob.
type AblationResult struct {
	Label    string
	Handoffs int
	PingPong int // immediate return to the previous cell within 5 s
	MeanThpt float64
}

// ablationRun drives one configured world and counts ping-pongs.
func ablationRun(label string, seed int64, mutate func(*netsim.World)) (AblationResult, error) {
	w, err := worldFor("T", seed)
	if err != nil {
		return AblationResult{}, err
	}
	if mutate != nil {
		mutate(w)
	}
	route := netsim.RowRoute(w, 50, 40)
	res := netsim.RunDrive(w, route, route.Duration(), netsim.UEOpts{
		Seed: seed * 3, Active: true, App: traffic.Speedtest{},
	})
	r := AblationResult{Label: label, Handoffs: len(res.Handoffs), MeanThpt: res.MeanThpt()}
	for i := 1; i < len(res.Handoffs); i++ {
		prev, cur := res.Handoffs[i-1], res.Handoffs[i]
		if cur.To == prev.From && cur.Time-prev.Time < 5000 {
			r.PingPong++
		}
	}
	return r, nil
}

// ablatePair runs the two variants of one design knob as parallel sim
// jobs and returns them in variant order.
func ablatePair(ctx context.Context, workers int, run func(i int) (AblationResult, error)) ([2]AblationResult, error) {
	var out [2]AblationResult
	res, err := sim.Run(ctx, sim.Options{Workers: workers}, 2,
		func(_ context.Context, i int) (AblationResult, error) { return run(i) })
	if err != nil {
		return out, err
	}
	copy(out[:], res)
	return out, nil
}

// AblateTTT compares TimeToTrigger = 0 against 320 ms (DESIGN.md §4:
// removing TTT inflates ping-pong handoffs).
func AblateTTT(ctx context.Context, seed int64, workers int) ([2]AblationResult, error) {
	ttts := []int{0, 320}
	return ablatePair(ctx, workers, func(i int) (AblationResult, error) {
		ev := config.EventConfig{Type: config.EventA3, Quantity: config.RSRP,
			Offset: units.Db(3), Hysteresis: units.Db(1), TimeToTriggerMs: units.Millis(ttts[i]),
			ReportIntervalMs: units.Millis(240), MaxReportCells: 4}
		return ablationRun(fmt.Sprintf("TTT=%dms", ttts[i]), seed, func(w *netsim.World) {
			netsim.OverridePrimaryEvent(w, ev)
		})
	})
}

// AblateHysteresis compares HA3 = 0 against 2.5 dB.
func AblateHysteresis(ctx context.Context, seed int64, workers int) ([2]AblationResult, error) {
	hs := []float64{0, 2.5}
	return ablatePair(ctx, workers, func(i int) (AblationResult, error) {
		ev := config.EventConfig{Type: config.EventA3, Quantity: config.RSRP,
			Offset: units.Db(3), Hysteresis: units.Db(hs[i]), TimeToTriggerMs: 0,
			ReportIntervalMs: units.Millis(240), MaxReportCells: 4}
		return ablationRun(fmt.Sprintf("HA3=%.1fdB", hs[i]), seed, func(w *netsim.World) {
			netsim.OverridePrimaryEvent(w, ev)
		})
	})
}

// AblateFilterK compares L3 filter coefficients (k = 0 raw vs k = 8
// heavy smoothing), the "3 dB measurement dynamics" knob.
func AblateFilterK(ctx context.Context, seed int64, workers int) ([2]AblationResult, error) {
	ks := []int{0, 8}
	return ablatePair(ctx, workers, func(i int) (AblationResult, error) {
		kk := ks[i]
		return ablationRun(fmt.Sprintf("filterK=%d", kk), seed, func(w *netsim.World) {
			for _, c := range w.Cells {
				if c.Config.Meas.Reports != nil {
					c.Config.Meas.FilterK = kk
				}
			}
		})
	})
}

// PriorityVsStrongest quantifies finding 2a on the idle side: how many
// reselections under priority rules land on a cell weaker than the best
// available (a best-RSRP policy would never do that). It uses a
// multi-layer world so priority cases actually arise.
func PriorityVsStrongest(seed int64) (weaker, total int, err error) {
	gen, err := carrier.NewGenerator("A")
	if err != nil {
		return 0, 0, err
	}
	w := netsim.BuildWorld(gen, driveRegion, netsim.WorldOpts{Seed: seed, LTELayers: 3, IncludeNonLTE: true})
	route := netsim.RowRoute(w, 45, 60)
	res := netsim.RunDrive(w, route, route.Duration(), netsim.UEOpts{Seed: seed, Active: false})
	for _, h := range res.Handoffs {
		total++
		if h.RSRPNew < h.RSRPOld {
			weaker++
		}
	}
	return weaker, total, nil
}

// AblateSpeedScaling contrasts idle highway reselection with and without
// the TS 36.304 speed-scaling block: a fast mover in high mobility state
// halves Treselect and sheds hysteresis, so it reselects earlier and rides
// healthier cells.
func AblateSpeedScaling(ctx context.Context, seed int64, workers int) ([2]AblationResult, error) {
	variants := []bool{true, false}
	return ablatePair(ctx, workers, func(i int) (AblationResult, error) {
		enabled := variants[i]
		gen, err := carrier.NewGenerator("A")
		if err != nil {
			return AblationResult{}, err
		}
		// Dense small cells: a highway UE crosses borders every ~13 s, so
		// the mobility-state criteria actually trigger.
		w := netsim.BuildWorld(gen, driveRegion, netsim.WorldOpts{Seed: seed, LTELayers: 1, ISD: 400})
		en := enabled
		netsim.OverrideServing(w, func(s *config.ServingCellConfig) {
			s.TReselectionSec = 4
			if en {
				s.SpeedScaling = config.SpeedScaling{
					Enabled: true, NCellChangeMedium: 4, NCellChangeHigh: 7,
					TEvaluationSec: 120, THystNormalSec: 120,
					TReselectionSFMedium: 0.5, TReselectionSFHigh: 0.25,
					QHystSFMedium: units.Db(-2), QHystSFHigh: units.Db(-4),
				}
			} else {
				s.SpeedScaling = config.SpeedScaling{}
			}
		})
		route := netsim.RowRoute(w, 110, 40) // highway speed
		res := netsim.RunDrive(w, route, route.Duration(), netsim.UEOpts{Seed: seed * 5, Active: false})
		label := "speedScaling=off"
		if enabled {
			label = "speedScaling=on"
		}
		rsrpOld := 0.0
		for _, h := range res.Handoffs {
			rsrpOld += h.RSRPOld.V()
		}
		r := AblationResult{Label: label, Handoffs: len(res.Handoffs)}
		if len(res.Handoffs) > 0 {
			r.MeanThpt = rsrpOld / float64(len(res.Handoffs)) // mean serving RSRP at reselection (dBm)
		}
		return r, nil
	})
}

// CrossLayerResult quantifies §6's cross-layer connection: how handoffs
// disturb a congestion-controlled flow.
type CrossLayerResult struct {
	Handoffs    int
	Timeouts    int     // TCP RTO events
	MeanThptBps float64 // whole-drive average
	// DipRatio is mean throughput in the second around handoffs divided by
	// the drive mean: < 1 quantifies the handoff scar.
	DipRatio float64
}

// CrossLayerTCP drives a TCP bulk download through a world and measures
// the interaction between handoffs and the transport layer (the
// cross-layer study §6 proposes on top of the configuration work).
func CrossLayerTCP(seed int64) (CrossLayerResult, error) {
	w, err := worldFor("T", seed)
	if err != nil {
		return CrossLayerResult{}, err
	}
	route := netsim.RowRoute(w, 50, 40)
	app := traffic.NewTCPDownload()
	res := netsim.RunDrive(w, route, route.Duration(), netsim.UEOpts{
		Seed: seed * 3, Active: true, App: app,
	})
	out := CrossLayerResult{
		Handoffs:    len(res.Handoffs),
		Timeouts:    app.Timeouts,
		MeanThptBps: res.MeanThpt(),
	}
	// Mean throughput within ±500 ms of each handoff execution.
	var near, nearN float64
	for _, h := range res.Handoffs {
		for _, b := range res.Thpt {
			if b.Time >= h.Time-500 && b.Time <= h.Time+500 {
				near += b.Bps
				nearN++
			}
		}
	}
	if nearN > 0 && out.MeanThptBps > 0 {
		out.DipRatio = (near / nearN) / out.MeanThptBps
	}
	return out, nil
}
