package mmlab

// Cross-module integration tests: the invariants that hold only when the
// whole pipeline — generator → wire → crawler → dataset → analysis — is
// consistent end to end.

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"testing"

	"mmlab/internal/analysis"
	"mmlab/internal/carrier"
	"mmlab/internal/config"
	"mmlab/internal/crawler"
	"mmlab/internal/dataset"
	"mmlab/internal/geo"
	"mmlab/internal/netsim"
	"mmlab/internal/predict"
	"mmlab/internal/sib"
	"mmlab/internal/traffic"
	"mmlab/internal/verify"
)

// TestHonestPipeline verifies the epistemic core of the reproduction:
// every configuration the analysis layer sees went over the wire, and the
// wire is lossless — the crawled CellConfig equals the generated one for
// every cell of a fleet.
func TestHonestPipeline(t *testing.T) {
	fleet, err := carrier.BuildFleet("A", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := crawler.CrawlFleet(context.Background(), fleet, &buf, 9, 0); err != nil {
		t.Fatal(err)
	}
	snaps, _, err := crawler.ParseDiag(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := range snaps {
		cs := &snaps[i]
		site, ok := fleet.SiteByID(cs.Identity.CellID)
		if !ok {
			t.Fatalf("crawled unknown cell %d", cs.Identity.CellID)
		}
		// Re-generate at the epoch the visit was taken (month index).
		epoch := int(cs.TimeMs / (30 * 24 * 3600 * 1000))
		orig := fleet.Gen.Config(site, epoch)
		if cs.Config.Serving != orig.Serving {
			t.Fatalf("cell %d serving differs after the wire:\n got %+v\nwant %+v",
				cs.Identity.CellID, cs.Config.Serving, orig.Serving)
		}
		// SIB grouping reorders relations by target RAT; compare as sets.
		if !reflect.DeepEqual(sortedFreqs(cs.Config.Freqs), sortedFreqs(orig.Freqs)) {
			t.Fatalf("cell %d freqs differ after the wire:\n got %+v\nwant %+v",
				cs.Identity.CellID, cs.Config.Freqs, orig.Freqs)
		}
		if len(orig.Meas.Reports) > 0 && !reflect.DeepEqual(cs.Config.Meas.Reports, orig.Meas.Reports) {
			t.Fatalf("cell %d reports differ after the wire", cs.Identity.CellID)
		}
		checked++
	}
	if checked < len(fleet.Sites) {
		t.Fatalf("checked %d snapshots < %d sites", checked, len(fleet.Sites))
	}
}

// sortedFreqs orders frequency relations canonically for set comparison.
func sortedFreqs(fs []config.FreqRelation) []config.FreqRelation {
	out := append([]config.FreqRelation(nil), fs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].RAT != out[j].RAT {
			return out[i].RAT < out[j].RAT
		}
		return out[i].EARFCN < out[j].EARFCN
	})
	return out
}

// TestGlobalD2Deterministic: two global builds with the same seed are
// byte-identical through serialization.
func TestGlobalD2Deterministic(t *testing.T) {
	a, err := crawler.BuildGlobalD2(context.Background(), 0.005, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := crawler.BuildGlobalD2(context.Background(), 0.005, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ba, bb bytes.Buffer
	if err := dataset.WriteD2(&ba, a.Snapshots); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteD2(&bb, b.Snapshots); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("global D2 not deterministic")
	}
	if a.UniqueCells() == 0 || len(a.Carriers()) != 30 {
		t.Fatalf("tiny D2 malformed: %d cells, %d carriers", a.UniqueCells(), len(a.Carriers()))
	}
}

// TestDatasetSerializationFidelity: JSONL round trip preserves every
// analysis result (Fig. 14 distributions identical before/after disk).
func TestDatasetSerializationFidelity(t *testing.T) {
	fleet, err := carrier.BuildFleet("A", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := crawler.BuildD2(context.Background(), fleet, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := &dataset.D2{Snapshots: snaps}
	var buf bytes.Buffer
	if err := dataset.WriteD2(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	loaded, err := dataset.ReadD2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	before := analysis.Fig14(orig, "A")
	after := analysis.Fig14(loaded, "A")
	if !reflect.DeepEqual(before, after) {
		t.Fatal("Fig14 differs across a JSONL round trip")
	}
	if rows := analysis.Table4(loaded); rows[0].Parameters != 66 {
		t.Fatal("Table4 broken after round trip")
	}
}

// TestDriveToAnalysisPipeline: a single drive flows through diag capture,
// the predictor, and the verifier without any module disagreeing about
// what happened.
func TestDriveToAnalysisPipeline(t *testing.T) {
	gen, err := carrier.NewGenerator("T")
	if err != nil {
		t.Fatal(err)
	}
	region := geo.NewRect(geo.Pt(0, 0), geo.Pt(6000, 4000))
	w := netsim.BuildWorld(gen, region, netsim.WorldOpts{Seed: 21})
	var buf bytes.Buffer
	dw := sib.NewDiagWriter(&buf)
	route := netsim.RowRoute(w, 50, 60)
	res := netsim.RunDrive(w, route, route.Duration(), netsim.UEOpts{
		Seed: 8, Active: true, App: traffic.Speedtest{}, Diag: dw,
	})
	if err := dw.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(res.Handoffs) == 0 {
		t.Fatal("quiet drive")
	}
	raw := buf.Bytes()

	// Crawler agrees with ground truth.
	snaps, events, err := crawler.ParseDiag(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(res.Handoffs) {
		t.Fatalf("crawler events %d != handoffs %d", len(events), len(res.Handoffs))
	}
	// Predictor is accurate on the same bytes.
	score, err := predict.Evaluate(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if score.Precision() < 0.9 || score.Recall() < 0.9 {
		t.Errorf("predictor on drive log: precision %.2f recall %.2f", score.Precision(), score.Recall())
	}
	// Verifier runs over the crawled configs without flagging loops in a
	// T-Mobile plan (market-uniform priorities cannot loop).
	cfgs := make([]*config.CellConfig, 0, len(snaps))
	for i := range snaps {
		cfgs = append(cfgs, &snaps[i].Config)
	}
	if loops := verify.FindPriorityLoops(cfgs); len(loops) != 0 {
		t.Errorf("T-Mobile plan loops: %v", loops)
	}
}

// TestD1CampaignRenderable: the D1 → figures path produces every Q2
// rendering without error at small scale.
func TestD1CampaignRenderable(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	d1, _ := d1Campaign(t, 0, 1)
	checkD1Renders(t, d1)
}
