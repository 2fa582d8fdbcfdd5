package crawler

import (
	"bytes"
	"context"
	"testing"

	"mmlab/internal/carrier"
	"mmlab/internal/config"
	"mmlab/internal/dataset"
	"mmlab/internal/fault"
	"mmlab/internal/geo"
	"mmlab/internal/mobility"
	"mmlab/internal/netsim"
	"mmlab/internal/rng"
	"mmlab/internal/sib"
	"mmlab/internal/traffic"
)

func TestParseDiagReconstructsConfig(t *testing.T) {
	g, err := carrier.NewGenerator("A")
	if err != nil {
		t.Fatal(err)
	}
	site := carrier.CellSite{
		Carrier: "A", City: "C3", Pos: geo.Pt(100, 100),
		Identity: config.CellIdentity{CellID: 77, PCI: 77, EARFCN: 850, RAT: config.RATLTE},
	}
	orig := g.Config(site, 0)

	var buf bytes.Buffer
	dw := sib.NewDiagWriter(&buf)
	for _, raw := range sib.BroadcastSet(orig) {
		dw.Write(sib.DiagRecord{TimestampMs: 42, Dir: sib.Downlink, Raw: raw})
	}
	dw.WriteMsg(43, sib.Downlink, &sib.RRCReconfig{Meas: orig.Meas})
	dw.Flush()

	snaps, events, err := ParseDiag(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("events = %d, want 0", len(events))
	}
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(snaps))
	}
	got := snaps[0]
	if got.Identity != orig.Identity || got.TimeMs != 42 {
		t.Errorf("identity/time = %v/%d", got.Identity, got.TimeMs)
	}
	// Every Table 2 knob must survive the wire.
	if got.Config.Serving != orig.Serving {
		t.Errorf("serving:\n got %+v\nwant %+v", got.Config.Serving, orig.Serving)
	}
	if len(got.Config.Freqs) != len(orig.Freqs) {
		t.Fatalf("freqs = %d, want %d", len(got.Config.Freqs), len(orig.Freqs))
	}
	for i := range orig.Freqs {
		if got.Config.Freqs[i] != orig.Freqs[i] {
			t.Errorf("freq[%d] = %+v, want %+v", i, got.Config.Freqs[i], orig.Freqs[i])
		}
	}
	if len(got.Config.Meas.Reports) != len(orig.Meas.Reports) {
		t.Errorf("reports = %d, want %d", len(got.Config.Meas.Reports), len(orig.Meas.Reports))
	}
	for id, rep := range orig.Meas.Reports {
		if got.Config.Meas.Reports[id] != rep {
			t.Errorf("report %d = %+v, want %+v", id, got.Config.Meas.Reports[id], rep)
		}
	}
}

func TestParseDiagMultipleCells(t *testing.T) {
	g, _ := carrier.NewGenerator("T")
	var buf bytes.Buffer
	dw := sib.NewDiagWriter(&buf)
	for i := uint32(1); i <= 5; i++ {
		site := carrier.CellSite{
			Carrier: "T", City: "C1", Pos: geo.Pt(float64(i)*500, 0),
			Identity: config.CellIdentity{CellID: i, EARFCN: 1950, RAT: config.RATLTE},
		}
		for _, raw := range sib.BroadcastSet(g.Config(site, 0)) {
			dw.Write(sib.DiagRecord{TimestampMs: uint64(i) * 100, Dir: sib.Downlink, Raw: raw})
		}
	}
	dw.Flush()
	snaps, _, err := ParseDiag(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 5 {
		t.Fatalf("snapshots = %d, want 5", len(snaps))
	}
	for i, s := range snaps {
		if s.Identity.CellID != uint32(i+1) {
			t.Errorf("snapshot %d cell = %d", i, s.Identity.CellID)
		}
	}
}

func TestParseDiagCorruptAbortsStrict(t *testing.T) {
	var buf bytes.Buffer
	dw := sib.NewDiagWriter(&buf)
	dw.WriteMsg(1, sib.Downlink, &sib.SIB4{ForbiddenCells: []uint32{1}})
	dw.Flush()
	data := buf.Bytes()
	data[len(data)-2] ^= 0xFF // flip a payload byte inside the message
	if _, _, _, err := ParseDiagOpts(bytes.NewReader(data), ParseOptions{Strict: true}); err == nil {
		t.Error("strict parse should abort on a corrupt record")
	}
	// The lenient default skips the damaged record and reports it.
	snaps, _, stats, err := ParseDiagOpts(bytes.NewReader(data), ParseOptions{})
	if err != nil {
		t.Fatalf("lenient parse errored: %v", err)
	}
	if len(snaps) != 0 {
		t.Errorf("snapshots from a fully corrupt stream: %d", len(snaps))
	}
	if stats.SkippedBytes == 0 || stats.Resyncs == 0 {
		t.Errorf("damage not reported: %+v", stats)
	}
}

// writeForbidden writes n SIB4 records carrying their index, so recovered
// records are identifiable after corruption.
func writeForbidden(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	dw := sib.NewDiagWriter(&buf)
	for i := 0; i < n; i++ {
		dw.WriteMsg(uint64(i)*10, sib.Downlink, &sib.SIB4{ForbiddenCells: []uint32{uint32(i)}})
	}
	if err := dw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseDiagResyncsPastDamage(t *testing.T) {
	// A CellInfo stamp, then forbidden-cell records; cut a record in half
	// mid-stream and splice garbage in. The prefix and suffix records must
	// all survive.
	var buf bytes.Buffer
	dw := sib.NewDiagWriter(&buf)
	dw.WriteMsg(0, sib.Downlink, &sib.CellInfo{Identity: config.CellIdentity{CellID: 9, RAT: config.RATLTE}})
	dw.Flush()
	head := append([]byte(nil), buf.Bytes()...)

	body := writeForbidden(t, 10)
	// Locate the 6th record's start by reframing.
	var offs []int
	{
		off := 0
		r := sib.NewDiagScanner(body)
		for {
			before := off
			rec, ok := r.Next()
			if !ok {
				break
			}
			_ = rec
			offs = append(offs, before)
			off += 13 + len(rec.Raw)
		}
	}
	if len(offs) != 10 {
		t.Fatalf("reframed %d records", len(offs))
	}
	cut5, cut6 := offs[5], offs[6]
	var stream []byte
	stream = append(stream, head...)
	stream = append(stream, body[:cut5]...)                           // records 0..4 intact
	stream = append(stream, body[cut5:cut5+(cut6-cut5)/2]...)         // record 5 truncated
	stream = append(stream, 0xDE, 0xAD, 0xBE, 0xEF, 0x13, 0x13, 0x13) // garbage
	stream = append(stream, body[cut6:]...)                           // records 6..9 intact

	snaps, _, stats, err := ParseDiagOpts(bytes.NewReader(stream), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(snaps))
	}
	got := map[uint32]bool{}
	for _, c := range snaps[0].Config.ForbiddenCells {
		got[c] = true
	}
	for _, want := range []uint32{0, 1, 2, 3, 4, 6, 7, 8, 9} {
		if !got[want] {
			t.Errorf("record %d not recovered (got %v)", want, snaps[0].Config.ForbiddenCells)
		}
	}
	if got[5] {
		t.Error("truncated record 5 should not decode")
	}
	if stats.Resyncs == 0 || stats.SkippedBytes == 0 {
		t.Errorf("damage not reported: %+v", stats)
	}
	if stats.Records != 10 { // CellInfo + 9 surviving SIB4s
		t.Errorf("Records = %d, want 10", stats.Records)
	}
}

func TestParseDiagRecoversFromCorruptor(t *testing.T) {
	// Drive the parser with the fault package's deterministic corruptor:
	// whatever survives the damage must be recovered, and the losses must
	// be visible in the stats — never a silent truncation.
	data := writeForbidden(t, 60)
	out, cstats, err := fault.Corrupt(data, 21, fault.CorruptOpts{
		Flip: 0.15, Drop: 0.1, Dup: 0.1, Swap: 0.1, Truncate: 0.1, Garbage: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	snaps, _, stats, err := ParseDiagOpts(bytes.NewReader(out), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = snaps
	// Every record the corruptor left byte-intact must come back:
	// originals minus dropped/truncated/flipped, plus intact duplicates.
	minIntact := cstats.Records - cstats.Dropped - cstats.Truncated - cstats.Flipped
	if stats.Records < minIntact {
		t.Fatalf("recovered %d records, want at least %d (%+v)", stats.Records, minIntact, cstats)
	}
	if cstats.Truncated+cstats.Garbaged > 0 && stats.SkippedBytes == 0 {
		t.Errorf("damage applied (%+v) but no bytes reported skipped", cstats)
	}
}

func TestParseDiagStatsCleanStream(t *testing.T) {
	data := writeForbidden(t, 7)
	_, _, stats, err := ParseDiagOpts(bytes.NewReader(data), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 7 || stats.Bad != 0 || stats.SkippedBytes != 0 || stats.Resyncs != 0 {
		t.Errorf("clean stream stats: %+v", stats)
	}
}

func TestParseDiagHandoffEvents(t *testing.T) {
	// End-to-end: a real drive writes a diag log; the crawler's view of
	// handoffs must match the simulator's ground truth.
	g, _ := carrier.NewGenerator("A")
	region := geo.NewRect(geo.Pt(0, 0), geo.Pt(5000, 3000))
	w := netsim.BuildWorld(g, region, netsim.WorldOpts{Seed: 9})
	var buf bytes.Buffer
	dw := sib.NewDiagWriter(&buf)
	route := mobility.NewRoute(50, geo.Pt(200, 1500), geo.Pt(4800, 1500))
	res := netsim.RunDrive(w, route, route.Duration(), netsim.UEOpts{
		Seed: 5, Active: true, App: traffic.Speedtest{}, Diag: dw,
	})
	dw.Flush()

	snaps, events, err := ParseDiag(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(res.Handoffs) {
		t.Fatalf("crawler saw %d handoffs, simulator made %d", len(events), len(res.Handoffs))
	}
	for i, ev := range events {
		truth := res.Handoffs[i]
		if ev.Target.CellID != truth.To.CellID {
			t.Errorf("event %d target = %d, want %d", i, ev.Target.CellID, truth.To.CellID)
		}
		if ev.Event != truth.Event {
			t.Errorf("event %d type = %v, want %v", i, ev.Event, truth.Event)
		}
		// The paper's decisive-report finding, observed from the wire.
		if lat := ev.LatencyMs(); lat < 80 || lat > 230+40 {
			t.Errorf("event %d latency = %d ms", i, lat)
		}
	}
	// The crawl saw the initial camp plus one snapshot per handoff.
	if len(snaps) != len(res.Handoffs)+1 {
		t.Errorf("snapshots = %d, want %d", len(snaps), len(res.Handoffs)+1)
	}
}

func TestVisitPlan(t *testing.T) {
	rng := rng.New(1)
	multi := 0
	const n = 5000
	for i := 0; i < n; i++ {
		plan := visitPlan(rng)
		if len(plan) < 1 || len(plan) > collectionMonths {
			t.Fatalf("plan size %d", len(plan))
		}
		for j := 1; j < len(plan); j++ {
			if plan[j] <= plan[j-1] {
				t.Fatalf("plan not strictly increasing: %v", plan)
			}
		}
		if len(plan) > 1 {
			multi++
		}
	}
	// Fig. 13a: ~48% of cells have multiple samples.
	frac := float64(multi) / n
	if frac < 0.42 || frac < 0 || frac > 0.55 {
		t.Errorf("multi-sample fraction = %v, want ~0.48", frac)
	}
}

func TestCrawlFleetAndBuildD2(t *testing.T) {
	f, err := carrier.BuildFleet("A", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := BuildD2(context.Background(), f, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < len(f.Sites) {
		t.Fatalf("snapshots %d < sites %d (every site visited at least once)", len(snaps), len(f.Sites))
	}
	cells := map[uint32]bool{}
	lteWithEvents := 0
	for _, s := range snaps {
		cells[s.CellID] = true
		if s.Carrier != "A" {
			t.Fatal("wrong carrier tag")
		}
		if len(s.Params) == 0 {
			t.Fatal("snapshot without parameters")
		}
		if s.RAT == "LTE" {
			if _, ok := s.Params["a3Offset"]; ok {
				lteWithEvents++
			}
		} else {
			if _, ok := s.Params["a3Offset"]; ok {
				t.Error("non-LTE snapshot carries LTE event params")
			}
		}
	}
	if len(cells) != len(f.Sites) {
		t.Errorf("unique cells %d != sites %d", len(cells), len(f.Sites))
	}
	if lteWithEvents == 0 {
		t.Error("no LTE snapshot carried active-state parameters")
	}
}

func TestBuildD2Deterministic(t *testing.T) {
	f, _ := carrier.BuildFleet("SK", 0.01)
	ctx := context.Background()
	a, err := BuildD2(ctx, f, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildD2(ctx, f, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].CellID != b[i].CellID || a[i].TimeMs != b[i].TimeMs {
			t.Fatal("crawl not deterministic")
		}
	}
}

func TestCrawlFleetDeterministicAcrossWorkers(t *testing.T) {
	f, err := carrier.BuildFleet("SK", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	crawl := func(workers int) []byte {
		var buf bytes.Buffer
		if _, err := CrawlFleet(context.Background(), f, &buf, 9, workers); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(crawl(1), crawl(8)) {
		t.Fatal("diag stream differs across worker counts")
	}
}

func TestBuildD2CarriersSingleMatchesGlobalSlice(t *testing.T) {
	// A single-carrier build must equal that carrier's slice of a
	// multi-carrier build: per-carrier seeds hang off the acronym, not the
	// carrier's position in the list.
	ctx := context.Background()
	both, err := BuildD2Carriers(ctx, []string{"A", "SK"}, 0.01, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	only, err := BuildD2Carriers(ctx, []string{"SK"}, 0.01, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var slice []dataset.D2Snapshot
	for _, s := range both.Snapshots {
		if s.Carrier == "SK" {
			slice = append(slice, s)
		}
	}
	if len(slice) == 0 || len(slice) != len(only.Snapshots) {
		t.Fatalf("slice %d vs single build %d snapshots", len(slice), len(only.Snapshots))
	}
	for i := range slice {
		if slice[i].CellID != only.Snapshots[i].CellID || slice[i].TimeMs != only.Snapshots[i].TimeMs {
			t.Fatal("single-carrier build diverges from global slice")
		}
	}
}
