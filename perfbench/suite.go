package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"mmlab/internal/carrier"
	"mmlab/internal/config"
	"mmlab/internal/core"
	"mmlab/internal/crawler"
	"mmlab/internal/fault"
	"mmlab/internal/geo"
	"mmlab/internal/netsim"
	"mmlab/internal/pipeline"
	"mmlab/internal/radio"
	"mmlab/internal/sib"
	"mmlab/internal/sim"
	"mmlab/internal/traffic"
	"mmlab/internal/units"
)

// The layer suite measures every layer the traced workload does not call
// itself, on small inputs made from the same seed, so every traced run
// reports every per-layer metric. Values the workload's own traced op
// already measured are kept; the suite only fills the rest.

// runSuite runs the D1 replay and the capture probes, and the small
// campaign, crawl, and ingest instances whose metrics m still lacks.
func runSuite(e *env, tr *Tracer, root int, m Metrics) (opResult, error) {
	var agg opResult
	add := func(r opResult, src Metrics) {
		agg.attempted += r.attempted
		agg.failed += r.failed
		agg.problems = append(agg.problems, r.problems...)
		for _, d := range perLayer {
			if v, ok := src[d.Name]; ok && !m.has(d.Name) {
				m[d.Name] = v
			}
		}
	}

	rm := Metrics{}
	var err error
	tr.Do("bench.replay", root, func(id int) { err = replayD1(e, tr, id, rm) })
	if err != nil {
		return agg, fmt.Errorf("replay: %w", err)
	}
	add(opResult{}, rm)

	cm := Metrics{}
	var capture []byte
	tr.Do("bench.capture_probes", root, func(id int) { capture, err = captureProbes(e, tr, id, cm) })
	if err != nil {
		return agg, fmt.Errorf("capture probes: %w", err)
	}
	add(opResult{}, cm)

	mini := func(name string, w workload, present string) error {
		if m.has(present) {
			return nil
		}
		sub := *e
		sub.dir = filepath.Join(e.dir, name)
		var r opResult
		var err error
		tr.Do("bench."+name, root, func(id int) {
			if err = w.setup(&sub); err == nil {
				r, err = w.op(&sub, tr, id)
			}
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		add(r, r.layer)
		return nil
	}
	// A one-city campaign in a 1 km arena: every campaign is one short
	// drive, so experiment's campaign loop is measured in seconds.
	if err := mini("mini_d1", &d1Workload{scale: 0.001, world: netsim.WorldTuning{RegionKm: 1}, cities: []string{"C1"}}, "experiment.campaign_s"); err != nil {
		return agg, err
	}
	if err := mini("mini_d2", &d2Workload{scale: d2Scale, carriers: []string{"A", "T"}}, "analysis.d2_figs_ms"); err != nil {
		return agg, err
	}
	iw := &ingestWorkload{
		feeds: []pipeline.FeedInput{
			{Carrier: "A", Stream: "s0", Data: capture},
			{Carrier: "A", Stream: "s1", Data: capture},
		},
		fleetMs: []float64{cm["carrier.build_fleet_ms"].Value},
		crawlS:  []float64{cm["crawler.crawl_fleet_s"].Value},
	}
	if err := mini("mini_ingest", &presetIngest{iw}, "pipeline.shard_queue_max"); err != nil {
		return agg, err
	}
	return agg, nil
}

// presetIngest is an ingest workload fed the suite's probe capture: its
// set-up only builds the reference.
type presetIngest struct{ *ingestWorkload }

func (p *presetIngest) setup(e *env) error { return p.reference(e) }

// The D1 drive recipe of experiment.BuildD1, repeated here so the replay
// builds the same worlds and routes a campaign drives: the standard
// arena, the city rotation, the per-run seeds, speeds, lanes, and apps.
var (
	driveRegion = geo.NewRect(geo.Pt(0, 0), geo.Pt(7000, 4500))
	d1Cities    = []string{"C1", "C3", "C5"}
)

func driveSpeed(run int) float64 {
	if run%2 == 0 {
		return 45
	}
	return 90 + float64(run%4)*10
}

func driveApp(run int) traffic.App {
	switch run % 4 {
	case 0:
		return traffic.Speedtest{}
	case 1:
		return traffic.NewConstantRate(1e6)
	case 2:
		return traffic.NewConstantRate(5e3)
	default:
		return traffic.NewPing()
	}
}

// replayRun is one sampled campaign run.
type replayRun struct {
	carrier string
	active  bool
	run     int
}

// replaySample is the fixed sample of campaign runs the replay drives:
// AT&T's first active run (local speed) and second idle run (highway).
var replaySample = []replayRun{{"A", true, 0}, {"A", false, 1}}

// Replay grid: measurement period of a drive, and the stride of the
// positions whose audible cells feed the per-call probes.
const (
	stepMs      = 40
	probeStride = 4
	// measureRadius and the grid bucket are BuildWorld's defaults for
	// the 700 m inter-site distance: 4×ISD and half of that.
	measureRadius = 4 * 700.0
)

// replayD1 drives the sample through carrier.NewGenerator →
// netsim.BuildWorld → netsim.RowRoute → netsim.RunDrive, then replays each
// route's positions, one per stepMs, through the lower layers.
func replayD1(e *env, tr *Tracer, root int, m Metrics) error {
	var (
		worldMs, driveMs, simS, handoffs, cells float64
		audibleNs, audibleCalls, audibleCells   float64
		rsrpNs, shadowNs, lossNs, pairs         float64
		gridNs, gridCalls, gridHits             float64
		observeNs, observeCalls, reports        float64
		configNs, configs                       float64
		sink                                    float64
	)
	for _, s := range replaySample {
		campSeed := e.seed + int64(len(s.carrier))
		if !s.active {
			campSeed += 1000
		}
		var gen *carrier.Generator
		var err error
		tr.Do("carrier.new_generator", root, func(int) { gen, err = carrier.NewGenerator(s.carrier) })
		if err != nil {
			return err
		}
		wopts := netsim.WorldOpts{Seed: campSeed + int64(s.run)*101, City: d1Cities[s.run%len(d1Cities)], LTELayers: 3, IncludeNonLTE: !s.active}
		var w *netsim.World
		worldMs += timed(tr, "netsim.build_world", root, func() { w = netsim.BuildWorld(gen, driveRegion, wopts) }) / 1e6
		cells += float64(len(w.Cells))
		configNs += timed(tr, "carrier.config", root, func() {
			for _, c := range w.Cells {
				sink += gen.Config(c.Site, 0).TxPowerDBm.V()
			}
		})
		configs += float64(len(w.Cells))

		route := netsim.RowRoute(w, driveSpeed(s.run), float64((s.run%5)-2)*120)
		opts := netsim.UEOpts{Seed: campSeed*7 + int64(s.run), Active: s.active}
		if s.active {
			opts.App = driveApp(s.run)
			opts.Injector = fault.New(sim.DeriveSeed(campSeed, s.run), fault.Rates{})
		}
		var res *netsim.DriveResult
		driveMs += timed(tr, "netsim.run_drive", root, func() { res = netsim.RunDrive(w, route, route.Duration(), opts) }) / 1e6
		simS += float64(route.Duration()) / 1000
		handoffs += float64(len(res.Handoffs))

		// Every position through the audibility query.
		var pos []geo.Point
		for t := int64(0); t < route.Duration(); t += stepMs {
			pos = append(pos, route.At(t))
		}
		probe := w.NewProbe()
		audibleNs += timed(tr, "netsim.audible", root, func() {
			for _, p := range pos {
				audibleCells += float64(len(probe.AudibleScored(p)))
			}
		})
		audibleCalls += float64(len(pos))

		// Every probeStride-th position's audible cells feed the per-call
		// probes; the measurements feed a monitor on the first serving cell.
		in := prepareReplay(w, probe, pos)
		pairs += float64(len(in.pairs))
		rsrpNs += timed(tr, "netsim.rsrp", root, func() {
			for _, pc := range in.pairs {
				sink += w.RSRPAt(pc.cell, pc.pos).V()
			}
		})
		shadowNs += timed(tr, "radio.shadow_at", root, func() {
			for _, pc := range in.pairs {
				sink += pc.cell.Shadow.At(pc.pos.X, pc.pos.Y).V()
			}
		})
		hata := radio.DefaultCOST231()
		lossNs += timed(tr, "radio.pathloss", root, func() {
			for _, pc := range in.pairs {
				sink += hata.Loss(units.Meters(pc.pos.Dist(pc.cell.Site.Pos)), pc.cell.FreqMHz).V()
			}
		})
		var buf []int32
		gridNs += timed(tr, "geo.within_radius", root, func() {
			for _, p := range in.points {
				buf = in.grid.WithinRadius(p, measureRadius, buf)
				gridHits += float64(len(buf))
			}
		})
		gridCalls += float64(len(in.points))
		if in.monitor != nil {
			observeNs += timed(tr, "core.observe", root, func() {
				for i, st := range in.steps {
					reports += float64(len(in.monitor.Observe(core.Clock(i*probeStride*stepMs), st.serving, st.neighbors)))
				}
			})
			observeCalls += float64(len(in.steps))
		}
	}
	keep = sink
	n := float64(len(replaySample))
	m.set("netsim.build_world_ms", worldMs/n)
	m.set("netsim.cells_per_world", cells/n)
	m.set("netsim.drive_ms_per_sim_s", driveMs/simS)
	m.set("netsim.handoffs_per_drive", handoffs/n)
	m.set("netsim.audible_us", audibleNs/audibleCalls/1e3)
	m.set("netsim.audible_cells", audibleCells/audibleCalls)
	m.set("netsim.rsrp_ns", rsrpNs/pairs)
	m.set("radio.shadow_at_ns", shadowNs/pairs)
	m.set("radio.pathloss_ns", lossNs/pairs)
	m.set("geo.within_radius_ns", gridNs/gridCalls)
	m.set("geo.within_radius_hits", gridHits/gridCalls)
	m.set("core.observe_ns", safeDiv(observeNs, observeCalls))
	m.set("core.reports", reports)
	m.set("carrier.config_us", configNs/configs/1e3)
	m.set("carrier.configs", configs)
	return nil
}

type cellAt struct {
	cell *netsim.Cell
	pos  geo.Point
}

type monitorStep struct {
	serving   core.RawMeas
	neighbors []core.RawMeas
}

// replayInput is what the per-call probes of one drive consume.
type replayInput struct {
	points  []geo.Point
	pairs   []cellAt
	grid    *geo.GridIndex
	monitor *core.ActiveMonitor
	steps   []monitorStep
}

// maxNeighbors is the UE's default cap on measured neighbours.
const maxNeighbors = 10

func prepareReplay(w *netsim.World, probe *netsim.Probe, pos []geo.Point) replayInput {
	var in replayInput
	sites := make([]geo.Point, len(w.Cells))
	for i, c := range w.Cells {
		sites[i] = c.Site.Pos
	}
	in.grid = geo.NewGridIndex(sites, measureRadius/2)
	var serving *netsim.Cell
	if len(pos) > 0 {
		serving = w.StrongestLTE(pos[0])
	}
	if serving != nil {
		in.monitor = core.NewActiveMonitor(serving.Config.Meas, serving.Site.Identity)
	}
	meas := func(c *netsim.Cell, rsrp units.Dbm) core.RawMeas {
		return core.RawMeas{Cell: c.Site.Identity, RSRP: rsrp, RSRQ: radio.RSRQFromRSRP(rsrp, c.Load)}
	}
	for i := 0; i < len(pos); i += probeStride {
		p := pos[i]
		in.points = append(in.points, p)
		st := monitorStep{}
		if serving != nil {
			st.serving = meas(serving, w.RSRPAt(serving, p))
		}
		for _, ac := range probe.AudibleScored(p) {
			in.pairs = append(in.pairs, cellAt{ac.Cell, p})
			if ac.Cell != serving && ac.Cell.Site.Identity.RAT == config.RATLTE && len(st.neighbors) < maxNeighbors {
				st.neighbors = append(st.neighbors, meas(ac.Cell, ac.RSRP))
			}
		}
		in.steps = append(in.steps, st)
	}
	return in
}

// captureProbes crawls one fleet into a capture and measures the sib,
// crawler, and pipeline layers on it. It returns the capture.
func captureProbes(e *env, tr *Tracer, root int, m Metrics) ([]byte, error) {
	const acr, scale, reps = "A", 0.05, 3
	var f *carrier.Fleet
	var err error
	fleetNs := timed(tr, "carrier.build_fleet", root, func() { f, err = carrier.BuildFleet(acr, scale) })
	if err != nil {
		return nil, err
	}
	m.set("carrier.build_fleet_ms", fleetNs/1e6)

	var capBuf bytes.Buffer
	crawlNs := timed(tr, "crawler.crawl_fleet", root, func() { _, err = crawler.CrawlFleet(e.ctx, f, &capBuf, e.seed, e.workers) })
	if err != nil {
		return nil, err
	}
	capture := capBuf.Bytes()
	capMB := float64(len(capture)) / 1e6
	m.set("crawler.crawl_fleet_s", crawlNs/1e9)

	// Broadcast encoding and the diag writer over the fleet's first-epoch
	// configurations.
	var cfgs []*config.CellConfig
	for _, s := range f.Sites {
		cfgs = append(cfgs, f.Gen.Config(s, 0))
	}
	var raws [][]byte
	var bcast, write, scan, stream, parse, feed, frame, build, encode []float64
	var snaps []crawler.ConfigSnapshot
	var events []crawler.HandoffEvent
	var stats crawler.ParseStats
	var diag, framed, cpBuf bytes.Buffer
	var cp *pipeline.Checkpoint
	var recs []sib.DiagRecord
	for r := 0; r < reps; r++ {
		raws = raws[:0]
		bcast = append(bcast, timed(tr, "sib.broadcast", root, func() {
			for _, c := range cfgs {
				raws = append(raws, sib.BroadcastSet(c)...)
			}
		}))
		diag.Reset()
		write = append(write, timed(tr, "sib.diag_write", root, func() {
			dw := sib.NewDiagWriter(&diag)
			for i, raw := range raws {
				if err = dw.Write(sib.DiagRecord{TimestampMs: uint64(i), Dir: sib.Downlink, Raw: raw}); err != nil {
					return
				}
			}
			err = dw.Flush()
		}))
		if err != nil {
			return nil, err
		}
		recs = recs[:0]
		scan = append(scan, timed(tr, "sib.scan", root, func() {
			sc := sib.NewDiagScanner(capture)
			for rec, ok := sc.Next(); ok; rec, ok = sc.Next() {
				recs = append(recs, rec)
			}
		}))
		stream = append(stream, timed(tr, "sib.stream_scan", root, func() {
			ss := sib.NewStreamScanner(bytes.NewReader(capture), sib.ScanOptions{Copy: true})
			for {
				var ok bool
				if _, ok, err = ss.Next(); !ok || err != nil {
					return
				}
			}
		}))
		if err != nil {
			return nil, err
		}
		parse = append(parse, timed(tr, "crawler.parse", root, func() {
			snaps, events, stats, err = crawler.ParseDiagOpts(bytes.NewReader(capture), crawler.ParseOptions{})
		}))
		if err != nil {
			return nil, err
		}
		feed = append(feed, timed(tr, "crawler.stream_feed", root, func() {
			sp := crawler.NewStreamParser()
			for _, rec := range recs {
				sp.Feed(rec)
			}
			sp.Close()
		})/float64(len(recs)))

		framed.Reset()
		for off := 0; off < len(capture); off += 64 << 10 {
			if err := pipeline.WriteFrame(&framed, capture[off:min(off+64<<10, len(capture))]); err != nil {
				return nil, err
			}
		}
		if err := pipeline.WriteEnd(&framed); err != nil {
			return nil, err
		}
		frame = append(frame, timed(tr, "pipeline.frame_read", root, func() {
			_, err = io.Copy(io.Discard, pipeline.NewFrameReader(bufio.NewReader(bytes.NewReader(framed.Bytes()))))
		}))
		if err != nil {
			return nil, err
		}
		results := []*pipeline.StreamResult{{Carrier: acr, Stream: "s0", Snapshots: snaps, Events: events, Stats: stats, Complete: true}}
		build = append(build, timed(tr, "pipeline.build_checkpoint", root, func() { cp = pipeline.BuildCheckpoint(results) }))
		cpBuf.Reset()
		encode = append(encode, timed(tr, "pipeline.encode_checkpoint", root, func() { err = cp.Encode(&cpBuf) }))
		if err != nil {
			return nil, err
		}
	}
	mbPerS := func(mb float64, ns []float64) float64 { return mb / (median(ns) / 1e9) }
	m.set("sib.broadcast_us", median(bcast)/float64(len(cfgs))/1e3)
	m.set("sib.diag_write_mb_s", mbPerS(float64(diag.Len())/1e6, write))
	m.set("sib.scan_mb_s", mbPerS(capMB, scan))
	m.set("sib.stream_scan_mb_s", mbPerS(capMB, stream))
	m.set("crawler.parse_mb_s", mbPerS(capMB, parse))
	m.set("crawler.snapshots", float64(len(snaps)))
	m.set("crawler.stream_feed_ns", median(feed))
	m.set("pipeline.frame_read_mb_s", mbPerS(capMB, frame))
	m.set("pipeline.build_checkpoint_ms", median(build)/1e6)
	m.set("pipeline.encode_checkpoint_ms", median(encode)/1e6)
	m.set("pipeline.checkpoint_mb", float64(cpBuf.Len())/1e6)
	return capture, nil
}

// keep holds the probed calls' summed results so the compiler cannot
// drop the calls.
var keep float64

// timed runs fn inside a span and returns its duration in nanoseconds.
func timed(tr *Tracer, name string, parent int, fn func()) float64 {
	id := tr.Start(name, parent)
	t := time.Now()
	fn()
	ns := float64(time.Since(t).Nanoseconds())
	tr.End(id)
	return ns
}
