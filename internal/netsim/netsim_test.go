package netsim

import (
	"bytes"
	"io"
	"testing"

	"mmlab/internal/carrier"
	"mmlab/internal/config"
	"mmlab/internal/geo"
	"mmlab/internal/mobility"
	"mmlab/internal/sib"
	"mmlab/internal/sim"
	"mmlab/internal/stats"
	"mmlab/internal/traffic"
	"mmlab/internal/units"
)

func testWorld(t *testing.T, acr string, opts WorldOpts) *World {
	t.Helper()
	g, err := carrier.NewGenerator(acr)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Seed == 0 {
		opts.Seed = 42
	}
	region := geo.NewRect(geo.Pt(0, 0), geo.Pt(6000, 4000))
	return BuildWorld(g, region, opts)
}

func TestBuildWorldLayers(t *testing.T) {
	w := testWorld(t, "A", WorldOpts{LTELayers: 3})
	if len(w.Cells) == 0 {
		t.Fatal("empty world")
	}
	chans := map[uint32]int{}
	for _, c := range w.Cells {
		if c.Site.Identity.RAT != config.RATLTE {
			t.Fatalf("non-LTE cell without IncludeNonLTE: %v", c.Site.Identity)
		}
		chans[c.Site.Identity.EARFCN]++
		if err := c.Config.Validate(); err != nil {
			t.Fatalf("cell config invalid: %v", err)
		}
		if c.FreqMHz < 400 || c.FreqMHz > 4000 {
			t.Fatalf("cell freq %v MHz", c.FreqMHz)
		}
		if c.Load < 0.2 || c.Load > 0.8 {
			t.Fatalf("cell load %v", c.Load)
		}
	}
	if len(chans) != 3 {
		t.Errorf("channel layers = %d, want 3", len(chans))
	}
}

func TestBuildWorldNonLTE(t *testing.T) {
	w := testWorld(t, "A", WorldOpts{LTELayers: 2, IncludeNonLTE: true})
	rats := map[config.RAT]int{}
	for _, c := range w.Cells {
		rats[c.Site.Identity.RAT]++
	}
	if rats[config.RATUMTS] == 0 || rats[config.RATGSM] == 0 {
		t.Errorf("missing non-LTE layers: %v", rats)
	}
}

func TestWorldDeterministic(t *testing.T) {
	a := testWorld(t, "A", WorldOpts{Seed: 7})
	b := testWorld(t, "A", WorldOpts{Seed: 7})
	if len(a.Cells) != len(b.Cells) {
		t.Fatal("cell counts differ")
	}
	p := geo.Pt(1234, 987)
	for i := range a.Cells {
		if a.RSRPAt(a.Cells[i], p) != b.RSRPAt(b.Cells[i], p) {
			t.Fatal("RSRP fields differ under same seed")
		}
	}
}

func TestAudibleSortedAndBounded(t *testing.T) {
	w := testWorld(t, "A", WorldOpts{})
	pos := geo.Pt(3000, 2000)
	cells := w.NewProbe().AudibleScored(pos)
	if len(cells) == 0 {
		t.Fatal("nothing audible at region center")
	}
	prev := cells[0].RSRP
	for _, c := range cells[1:] {
		if c.RSRP != w.RSRPAt(c.Cell, pos) {
			t.Fatal("scored RSRP differs from RSRPAt")
		}
		if c.RSRP > prev {
			t.Fatal("audible list not sorted by RSRP")
		}
		prev = c.RSRP
	}
	if s := w.StrongestLTE(pos); s != cells[0].Cell {
		t.Error("StrongestLTE should be the first audible LTE cell")
	}
}

func driveOpts(active bool) UEOpts {
	return UEOpts{Seed: 11, Active: active, App: traffic.Speedtest{}}
}

func TestActiveDriveProducesHandoffs(t *testing.T) {
	w := testWorld(t, "A", WorldOpts{})
	route := mobility.NewRoute(45, geo.Pt(200, 2000), geo.Pt(5800, 2000))
	res := RunDrive(w, route, route.Duration(), driveOpts(true))
	if len(res.Handoffs) == 0 {
		t.Fatal("no handoffs on a 5.6 km drive through a 700 m ISD grid")
	}
	for _, h := range res.Handoffs {
		if h.Kind != ActiveHandoff {
			t.Errorf("kind = %v", h.Kind)
		}
		// The decisive-event finding: execution 80–230 ms after the report.
		gap := h.Time - h.ReportTime
		if gap < 80 || gap > 230+40 { // +step quantization
			t.Errorf("report→handoff gap = %d ms, want ~80-230", gap)
		}
		switch h.Event {
		case config.EventA3, config.EventA5, config.EventPeriodic, config.EventA2, config.EventA4:
		default:
			t.Errorf("decisive event %v unexpected", h.Event)
		}
		if h.From == h.To {
			t.Error("self handoff")
		}
		if h.MinThptBefore < 0 {
			t.Error("active drive with traffic should record pre-handoff throughput")
		}
	}
	if len(res.Thpt) == 0 {
		t.Error("no throughput samples")
	}
	if res.Reports[config.EventA3]+res.Reports[config.EventA5]+res.Reports[config.EventPeriodic]+res.Reports[config.EventA2] == 0 {
		t.Error("no measurement reports at all")
	}
}

func TestActiveDriveDeterministic(t *testing.T) {
	w1 := testWorld(t, "A", WorldOpts{Seed: 5})
	w2 := testWorld(t, "A", WorldOpts{Seed: 5})
	route := mobility.NewRoute(50, geo.Pt(200, 1500), geo.Pt(5500, 2500))
	r1 := RunDrive(w1, route, route.Duration(), driveOpts(true))
	r2 := RunDrive(w2, route, route.Duration(), driveOpts(true))
	if len(r1.Handoffs) != len(r2.Handoffs) {
		t.Fatalf("handoff counts differ: %d vs %d", len(r1.Handoffs), len(r2.Handoffs))
	}
	for i := range r1.Handoffs {
		if r1.Handoffs[i].Time != r2.Handoffs[i].Time || r1.Handoffs[i].To != r2.Handoffs[i].To {
			t.Fatal("handoff sequence differs under identical seeds")
		}
	}
}

func TestIdleDriveReselects(t *testing.T) {
	w := testWorld(t, "A", WorldOpts{})
	route := mobility.NewRoute(45, geo.Pt(200, 2000), geo.Pt(5800, 2000))
	res := RunDrive(w, route, route.Duration(), UEOpts{Seed: 3, Active: false})
	if len(res.Handoffs) == 0 {
		t.Fatal("no idle reselections on a long drive")
	}
	for _, h := range res.Handoffs {
		if h.Kind != IdleHandoff {
			t.Errorf("kind = %v", h.Kind)
		}
		if h.MinThptBefore != -1 {
			t.Error("idle handoffs carry no throughput")
		}
	}
	// Equal-priority reselections must overwhelmingly improve RSRP
	// (Fig. 10: "almost all the handoffs (except higher-priority...) go to
	// stronger cells").
	better, equalPrio := 0, 0
	for _, h := range res.Handoffs {
		if h.ToPriority == h.FromPriority {
			equalPrio++
			if h.RSRPNew > h.RSRPOld {
				better++
			}
		}
	}
	if equalPrio > 0 && float64(better)/float64(equalPrio) < 0.7 {
		t.Errorf("equal-priority improvements = %d/%d", better, equalPrio)
	}
}

func TestDiagStreamParses(t *testing.T) {
	w := testWorld(t, "A", WorldOpts{})
	var buf bytes.Buffer
	dw := sib.NewDiagWriter(&buf)
	route := mobility.NewRoute(50, geo.Pt(200, 2000), geo.Pt(5800, 2000))
	opts := driveOpts(true)
	opts.Diag = dw
	res := RunDrive(w, route, route.Duration(), opts)
	if err := dw.Flush(); err != nil {
		t.Fatal(err)
	}

	counts := map[sib.MsgType]int{}
	r := sib.NewDiagReader(&buf)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := rec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		counts[m.Type()]++
	}
	if counts[sib.MsgSIB3] == 0 || counts[sib.MsgSIB1] == 0 || counts[sib.MsgCellIdentity] == 0 {
		t.Errorf("broadcast messages missing: %v", counts)
	}
	if counts[sib.MsgMeasReport] == 0 {
		t.Error("no measurement reports captured")
	}
	if counts[sib.MsgHandoverCmd] != len(res.Handoffs) {
		t.Errorf("handover commands = %d, handoffs = %d", counts[sib.MsgHandoverCmd], len(res.Handoffs))
	}
	// Each camp writes one SIB3: initial + one per handoff.
	if counts[sib.MsgSIB3] != len(res.Handoffs)+1 {
		t.Errorf("SIB3 count = %d, want %d", counts[sib.MsgSIB3], len(res.Handoffs)+1)
	}
}

func TestA3OffsetDelaysHandoffAndHurtsThroughput(t *testing.T) {
	// The Fig. 7/8 shape: ΔA3 = 12 dB defers handoffs and deepens the
	// pre-handoff throughput dip versus ΔA3 = 5 dB. The scenario matches
	// the paper's: intra-frequency handoffs (single LTE layer) along a
	// road passing the towers.
	g, err := carrier.NewGenerator("T")
	if err != nil {
		t.Fatal(err)
	}
	region := geo.NewRect(geo.Pt(0, 0), geo.Pt(6000, 4000))
	// Three drives per offset; drive i builds its world from
	// sim.DeriveSeed(1000, 2i) and seeds its UE with sim.DeriveSeed(1000,
	// 2i+1).
	run := func(offset units.Db) (minBefore float64, n int) {
		var mins []float64
		for i := 0; i < 3; i++ {
			w := BuildWorld(g, region, WorldOpts{Seed: sim.DeriveSeed(1000, 2*i), LTELayers: 1})
			OverridePrimaryEvent(w, config.EventConfig{
				Type: config.EventA3, Quantity: config.RSRP, Offset: offset, Hysteresis: 1,
				TimeToTriggerMs: 320, ReportIntervalMs: 240, MaxReportCells: 4,
			})
			opts := driveOpts(true)
			opts.Seed = sim.DeriveSeed(1000, 2*i+1)
			route := RowRoute(w, 50, 40)
			for _, h := range RunDrive(w, route, route.Duration(), opts).Handoffs {
				if h.Event == config.EventA3 && h.MinThptBefore >= 0 {
					mins = append(mins, h.MinThptBefore)
				}
			}
		}
		return stats.Mean(mins), len(mins)
	}
	lo5, n5 := run(5)
	lo12, n12 := run(12)
	if n5 == 0 || n12 == 0 {
		t.Fatalf("no A3 handoffs: n5=%d n12=%d", n5, n12)
	}
	if lo12 >= lo5 {
		t.Errorf("ΔA3=12 min-throughput %v should be below ΔA3=5's %v (n5=%d n12=%d)", lo12, lo5, n5, n12)
	}
}

func TestBandLockoutCausesFailures(t *testing.T) {
	// Device without band 30 (channel 9820) in an AT&T world where 9820 is
	// the top priority: handoffs toward it fail (§5.4.1).
	w := testWorld(t, "A", WorldOpts{Seed: 33})
	supported := []uint32{}
	has9820 := false
	for _, c := range w.Cells {
		ch := c.Site.Identity.EARFCN
		if ch == 9820 {
			has9820 = true
			continue
		}
		supported = append(supported, ch)
	}
	if !has9820 {
		t.Skip("world has no band-30 layer at this seed")
	}
	route := mobility.NewRoute(45, geo.Pt(200, 2000), geo.Pt(5800, 2000))
	opts := UEOpts{Seed: 3, Active: false, DeviceBands: supported}
	res := RunDrive(w, route, route.Duration(), opts)
	full := RunDrive(w, route, route.Duration(), UEOpts{Seed: 3, Active: false})
	if res.FailedHO == 0 {
		// Only fails if reselection actually targeted 9820 somewhere.
		to9820 := 0
		for _, h := range full.Handoffs {
			if h.To.EARFCN == 9820 {
				to9820++
			}
		}
		if to9820 > 0 {
			t.Errorf("full device reselected to 9820 %d times but locked device reported no failures", to9820)
		}
	}
}

func TestOverrideHelpers(t *testing.T) {
	w := testWorld(t, "A", WorldOpts{})
	ev := config.EventConfig{Type: config.EventA5, Quantity: config.RSRP,
		Threshold1: -44, Threshold2: -114, Hysteresis: 1,
		TimeToTriggerMs: 320, ReportIntervalMs: 240, MaxReportCells: 4}
	OverridePrimaryEvent(w, ev)
	OverrideServing(w, func(s *config.ServingCellConfig) { s.ThreshServingLow = 10 })
	for _, c := range w.Cells {
		if c.Config.Meas.Reports != nil {
			if got := c.Config.Meas.Reports[2]; got.Type != config.EventA5 || got.Threshold2 != -114 {
				t.Fatalf("override not applied: %+v", got)
			}
		}
		if c.Config.Serving.ThreshServingLow != 10 {
			t.Fatal("serving override not applied")
		}
	}
}

func TestNoTrafficNoThptSamples(t *testing.T) {
	w := testWorld(t, "A", WorldOpts{})
	route := mobility.NewRoute(45, geo.Pt(200, 2000), geo.Pt(3000, 2000))
	res := RunDrive(w, route, route.Duration(), UEOpts{Seed: 1, Active: true})
	if len(res.Thpt) != 0 {
		t.Error("throughput samples without an app")
	}
	for _, h := range res.Handoffs {
		if h.MinThptBefore != -1 {
			t.Error("MinThptBefore should be -1 without traffic")
		}
	}
}

func TestMeanThpt(t *testing.T) {
	r := &DriveResult{}
	if r.MeanThpt() != 0 {
		t.Error("empty mean should be 0")
	}
	r.Thpt = []ThptSample{{0, 4}, {100, 8}}
	if r.MeanThpt() != 6 {
		t.Errorf("MeanThpt = %v", r.MeanThpt())
	}
}
