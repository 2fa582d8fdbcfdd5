package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// TestD1CSVRoundTrip writes one record with a distinct value in every
// column and compares the data row against the expected literal, so a
// swapped column or a changed number format fails.
func TestD1CSVRoundTrip(t *testing.T) {
	rec := D1Record{
		Carrier: "A", City: "C3", Kind: "active", Event: "A5",
		TimeMs: 1000, ReportTimeMs: 900, FromCellID: 1, ToCellID: 2,
		FromEARFCN: 5780, ToEARFCN: 9820, FromRAT: "LTE", ToRAT: "UMTS",
		FromPriority: 2, ToPriority: 5,
		RSRPOld: -105.5, RSRPNew: -95, RSRQOld: -12.5, RSRQNew: -9,
		Quantity: "RSRP", Offset: 3, Hysteresis: 1.5, Threshold1: -110, Threshold2: -100,
		TTTMs: 320, MinThptBefore: 2e6,
	}
	var buf bytes.Buffer
	if err := WriteD1CSV(&buf, []D1Record{rec}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want header + 1 row:\n%s", len(lines), buf.String())
	}
	want := "A,C3,active,A5,1000,900,1,2,5780,9820,LTE,UMTS,2,5,-105.5,-95,-12.5,-9,RSRP,3,1.5,-110,-100,320,2e+06"
	if lines[1] != want {
		t.Errorf("row:\n got %s\nwant %s", lines[1], want)
	}
}

func TestD1CSVHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteD1CSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	want := "carrier,city,kind,event,t_ms,report_t_ms,from_cell,to_cell,from_freq,to_freq,from_rat,to_rat," +
		"from_prio,to_prio,rsrp_old,rsrp_new,rsrq_old,rsrq_new," +
		"quantity,offset,hysteresis,threshold1,threshold2,ttt_ms,min_thpt_bps\n"
	if got := buf.String(); got != want {
		t.Errorf("empty table = %q, want the header line only", got)
	}
}

func TestD2CSVLongFormat(t *testing.T) {
	snaps := []D2Snapshot{
		snap("A", 1, "LTE", 1, map[string][]float64{
			"qHyst":             {4},
			"interFreqPriority": {2, 5},
		}),
	}
	var buf bytes.Buffer
	if err := WriteD2CSV(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + 3 sample rows (1 qHyst + 2 interFreqPriority).
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "carrier,city,cell") {
		t.Errorf("header = %q", lines[0])
	}
	// Params emitted in sorted order: interFreqPriority rows first.
	if !strings.Contains(lines[1], "interFreqPriority,2") ||
		!strings.Contains(lines[2], "interFreqPriority,5") ||
		!strings.Contains(lines[3], "qHyst,4") {
		t.Errorf("rows:\n%s", buf.String())
	}
}
