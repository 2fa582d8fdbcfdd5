package dataset

import (
	"bytes"
	"reflect"
	"testing"

	"mmlab/internal/config"
)

func sampleD1() []D1Record {
	return []D1Record{
		{Carrier: "A", City: "C3", Kind: "active", Event: "A3",
			TimeMs: 1000, ReportTimeMs: 900, FromCellID: 1, ToCellID: 2,
			FromEARFCN: 5780, ToEARFCN: 5780, FromRAT: "LTE", ToRAT: "LTE",
			FromPriority: 2, ToPriority: 2,
			RSRPOld: -105, RSRPNew: -95, MinThptBefore: 2e6, Offset: 3, TTTMs: 320},
		{Carrier: "A", City: "C3", Kind: "idle",
			TimeMs: 5000, FromCellID: 2, ToCellID: 3,
			FromEARFCN: 5780, ToEARFCN: 9820, FromRAT: "LTE", ToRAT: "LTE",
			FromPriority: 2, ToPriority: 5,
			RSRPOld: -100, RSRPNew: -104, MinThptBefore: -1},
		{Carrier: "T", City: "C1", Kind: "active", Event: "A5",
			TimeMs: 9000, FromCellID: 7, ToCellID: 8,
			FromEARFCN: 1950, ToEARFCN: 1950, FromRAT: "LTE", ToRAT: "LTE",
			FromPriority: 5, ToPriority: 4,
			RSRPOld: -110, RSRPNew: -102, MinThptBefore: 5e5},
	}
}

func TestD1RecordDerived(t *testing.T) {
	rs := sampleD1()
	if rs[0].DeltaRSRP() != 10 {
		t.Errorf("DeltaRSRP = %v", rs[0].DeltaRSRP())
	}
	if !rs[0].IntraFreq() || rs[1].IntraFreq() {
		t.Error("IntraFreq classification wrong")
	}
	if rs[0].PriorityRelation() != "equal" ||
		rs[1].PriorityRelation() != "higher" ||
		rs[2].PriorityRelation() != "lower" {
		t.Error("PriorityRelation classification wrong")
	}
}

func TestD1RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteD1(&buf, sampleD1()); err != nil {
		t.Fatal(err)
	}
	d, err := ReadD1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Records, sampleD1()) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", d.Records, sampleD1())
	}
	if len(d.Active()) != 2 || len(d.Idle()) != 1 {
		t.Errorf("Active/Idle split: %d/%d", len(d.Active()), len(d.Idle()))
	}
	by := d.ByCarrier()
	if len(by["A"]) != 2 || len(by["T"]) != 1 {
		t.Errorf("ByCarrier: %v", by)
	}
}

func TestD1ReadCorrupt(t *testing.T) {
	if _, err := ReadD1(bytes.NewReader([]byte("{not json"))); err == nil {
		t.Error("corrupt D1 should error")
	}
	d, err := ReadD1(bytes.NewReader(nil))
	if err != nil || len(d.Records) != 0 {
		t.Error("empty D1 should read cleanly")
	}
}

func snap(carrier string, cell uint32, rat string, round int, params map[string][]float64) D2Snapshot {
	return D2Snapshot{
		Carrier: carrier, City: "C3", CellID: cell, EARFCN: 5780, RAT: rat,
		TimeMs: uint64(round) * 1000, Round: round, Params: params,
	}
}

func TestD2RoundTripAndCounts(t *testing.T) {
	snaps := []D2Snapshot{
		snap("A", 1, "LTE", 1, map[string][]float64{"qHyst": {4}, "interFreqPriority": {2, 5}}),
		snap("A", 1, "LTE", 2, map[string][]float64{"qHyst": {4}}),
		snap("A", 2, "LTE", 1, map[string][]float64{"qHyst": {4}}),
		snap("T", 9, "LTE", 1, map[string][]float64{"qHyst": {3}}),
	}
	var buf bytes.Buffer
	if err := WriteD2(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	d, err := ReadD2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.UniqueCells() != 3 {
		t.Errorf("UniqueCells = %d, want 3", d.UniqueCells())
	}
	if d.TotalSamples() != 6 {
		t.Errorf("TotalSamples = %d, want 6", d.TotalSamples())
	}
	if cs := d.Carriers(); len(cs) != 2 || cs[0] != "A" || cs[1] != "T" {
		t.Errorf("Carriers = %v", cs)
	}
}

func TestD2SnapshotSampleCount(t *testing.T) {
	s := snap("A", 1, "LTE", 1, map[string][]float64{"a": {1, 2, 3}, "b": {4}})
	if s.SampleCount() != 4 {
		t.Errorf("SampleCount = %d", s.SampleCount())
	}
}

func TestParamValuesUniqueSampleRule(t *testing.T) {
	// Cell 1 observed 3 times with the same value, cell 2 once with a
	// different value: the distribution must be 50/50, not 75/25
	// (paper §5.1: "consider unique samples").
	d := &D2{Snapshots: []D2Snapshot{
		snap("A", 1, "LTE", 1, map[string][]float64{"qHyst": {4}}),
		snap("A", 1, "LTE", 2, map[string][]float64{"qHyst": {4}}),
		snap("A", 1, "LTE", 3, map[string][]float64{"qHyst": {4}}),
		snap("A", 2, "LTE", 1, map[string][]float64{"qHyst": {2}}),
	}}
	vals := d.ParamValues("A", "LTE", "qHyst")
	if len(vals) != 2 || vals[0] != 2 || vals[1] != 4 {
		t.Errorf("ParamValues = %v, want [2 4]", vals)
	}
	// A cell whose value CHANGED contributes both values.
	d.Snapshots = append(d.Snapshots,
		snap("A", 2, "LTE", 2, map[string][]float64{"qHyst": {6}}))
	vals = d.ParamValues("A", "LTE", "qHyst")
	if len(vals) != 3 {
		t.Errorf("changed cell should contribute both values: %v", vals)
	}
}

func TestParamValuesFilters(t *testing.T) {
	d := &D2{Snapshots: []D2Snapshot{
		snap("A", 1, "LTE", 1, map[string][]float64{"qHyst": {4}}),
		snap("A", 3, "UMTS", 1, map[string][]float64{"qHyst1s": {2}}),
		snap("T", 9, "LTE", 1, map[string][]float64{"qHyst": {3}}),
	}}
	if vals := d.ParamValues("A", "LTE", "qHyst"); len(vals) != 1 || vals[0] != 4 {
		t.Errorf("carrier+rat filter: %v", vals)
	}
	if vals := d.ParamValues("", "LTE", "qHyst"); len(vals) != 2 {
		t.Errorf("all-carrier filter: %v", vals)
	}
	if vals := d.ParamValues("A", "", "qHyst"); len(vals) != 1 {
		t.Errorf("all-rat filter: %v", vals)
	}
	if vals := d.ParamValues("A", "LTE", "missing"); len(vals) != 0 {
		t.Errorf("missing param: %v", vals)
	}
}

func TestGroupParamValues(t *testing.T) {
	s1 := snap("A", 1, "LTE", 1, map[string][]float64{"p": {2}})
	s1.EARFCN = 5780
	s2 := snap("A", 2, "LTE", 1, map[string][]float64{"p": {5}})
	s2.EARFCN = 9820
	s3 := snap("A", 3, "LTE", 1, map[string][]float64{"p": {5}})
	s3.EARFCN = 9820
	d := &D2{Snapshots: []D2Snapshot{s1, s2, s3}}
	groups := d.GroupParamValues("A", "LTE", "p", func(s *D2Snapshot) string {
		if s.EARFCN == 9820 {
			return "band30"
		}
		return "other"
	})
	if len(groups["band30"]) != 2 || len(groups["other"]) != 1 {
		t.Errorf("groups = %v", groups)
	}
}

func TestSnapshotParams(t *testing.T) {
	c := &config.CellConfig{
		Identity: config.CellIdentity{CellID: 5, EARFCN: 5780, RAT: config.RATLTE},
		Serving: config.ServingCellConfig{
			Priority: 3, QHyst: 4, SIntraSearch: 62, SNonIntraSearch: 28,
			QRxLevMin: -122, QQualMin: -19.5, ThreshServingLow: 6, TReselectionSec: 2,
		},
		Freqs: []config.FreqRelation{
			{EARFCN: 2000, RAT: config.RATLTE, Priority: 4, ThreshHigh: 10, ThreshLow: 2, QRxLevMin: -120},
		},
	}
	params := SnapshotParams(c)
	if got := params["cellReselectionPriority"]; len(got) != 1 || got[0] != 3 {
		t.Errorf("priority = %v", got)
	}
	if got := params["interFreqPriority"]; len(got) != 1 || got[0] != 4 {
		t.Errorf("interFreqPriority = %v", got)
	}
	if _, ok := params["a3Offset"]; ok {
		t.Error("a3Offset should be absent without reports")
	}
	// UMTS cell uses the UMTS catalog names.
	c.Identity.RAT = config.RATUMTS
	params = SnapshotParams(c)
	if _, ok := params["qHyst1s"]; !ok {
		t.Errorf("UMTS catalog names expected, got %v", params)
	}
}
