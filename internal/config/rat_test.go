package config

import "testing"

func TestRATStrings(t *testing.T) {
	tests := []struct {
		r    RAT
		want string
	}{
		{RATLTE, "LTE"},
		{RATUMTS, "UMTS"},
		{RATGSM, "GSM"},
		{RATEVDO, "EVDO"},
		{RATCDMA1x, "CDMA1x"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", tt.r, got, tt.want)
		}
		if !tt.r.Valid() {
			t.Errorf("%s should be valid", tt.want)
		}
	}
	bad := RAT(99)
	if bad.Valid() {
		t.Error("RAT(99) should be invalid")
	}
	if bad.String() == "" {
		t.Error("invalid RAT String should still render")
	}
}

func TestAllRATs(t *testing.T) {
	rats := AllRATs()
	if len(rats) != 5 {
		t.Fatalf("AllRATs = %d entries, want 5", len(rats))
	}
	seen := map[RAT]bool{}
	for _, r := range rats {
		if seen[r] {
			t.Errorf("duplicate RAT %s", r)
		}
		seen[r] = true
	}
}

func TestQuantity(t *testing.T) {
	if RSRP.String() != "RSRP" || RSRQ.String() != "RSRQ" {
		t.Error("quantity names wrong")
	}
	if !RSRP.Valid() || !RSRQ.Valid() || Quantity(7).Valid() {
		t.Error("quantity validity wrong")
	}
	if Quantity(7).String() == "" {
		t.Error("invalid Quantity String should render")
	}
}

func TestEventTypeNames(t *testing.T) {
	tests := map[EventType]string{
		EventA1: "A1", EventA2: "A2", EventA3: "A3", EventA4: "A4",
		EventA5: "A5", EventA6: "A6", EventB1: "B1", EventB2: "B2",
		EventC1: "C1", EventC2: "C2", EventPeriodic: "P",
	}
	for e, want := range tests {
		if got := e.String(); got != want {
			t.Errorf("EventType %d = %q, want %q", e, got, want)
		}
		if !e.Valid() {
			t.Errorf("%s should be valid", want)
		}
	}
	if EventType(50).Valid() {
		t.Error("EventType(50) should be invalid")
	}
	if EventType(50).String() == "" {
		t.Error("invalid EventType String should render")
	}
}

func TestEventTypeClassification(t *testing.T) {
	if !EventB1.InterRAT() || !EventB2.InterRAT() {
		t.Error("B1/B2 are inter-RAT")
	}
	if EventA3.InterRAT() || EventPeriodic.InterRAT() {
		t.Error("A3/P are not inter-RAT")
	}
	for _, e := range []EventType{EventA3, EventA4, EventA5, EventB1, EventB2, EventPeriodic} {
		if !e.NeedsNeighbor() {
			t.Errorf("%s needs neighbor measurements", e)
		}
	}
	for _, e := range []EventType{EventA1, EventA2} {
		if e.NeedsNeighbor() {
			t.Errorf("%s is serving-only", e)
		}
	}
}
