package units_test

import (
	"encoding/json"
	"fmt"
	"testing"
	"unsafe"

	"mmlab/internal/units"
)

// The whole contract of the package: unit types are invisible at every
// I/O boundary. JSON, fmt verbs, and memory layout must be exactly what
// the bare types produce.
func TestZeroCostRepresentation(t *testing.T) {
	if unsafe.Sizeof(units.Dbm(0)) != unsafe.Sizeof(float64(0)) {
		t.Error("Dbm is not float64-sized")
	}
	if unsafe.Sizeof(units.Millis(0)) != unsafe.Sizeof(int64(0)) {
		t.Error("Millis is not int64-sized")
	}

	for _, v := range []float64{0, -110.5, -19.5, 3.25, 62, 2112.4} {
		typed, _ := json.Marshal(units.Dbm(v))
		plain, _ := json.Marshal(v)
		if string(typed) != string(plain) {
			t.Errorf("JSON(Dbm(%v)) = %s, want %s", v, typed, plain)
		}
		if got, want := fmt.Sprintf("%g", units.Db(v)), fmt.Sprintf("%g", v); got != want {
			t.Errorf("%%g of Db(%v) = %q, want %q", v, got, want)
		}
		if got, want := fmt.Sprintf("%v", units.Meters(v)), fmt.Sprintf("%v", v); got != want {
			t.Errorf("%%v of Meters(%v) = %q, want %q", v, got, want)
		}
	}
	typed, _ := json.Marshal(units.Millis(5120))
	if string(typed) != "5120" {
		t.Errorf("JSON(Millis(5120)) = %s", typed)
	}
}

func TestCrossUnitHelpers(t *testing.T) {
	rsrp := units.Dbm(-102.5)
	off := units.Db(3)
	hyst := units.Db(1.5)

	// Helper chains must evaluate left-to-right exactly like the bare
	// expression rsrp + off + hyst.
	if got, want := rsrp.Add(off).Add(hyst), units.Dbm(-102.5+3+1.5); got != want {
		t.Errorf("Add chain = %g, want %g", got.V(), want.V())
	}
	if got, want := rsrp.SubDb(hyst), units.Dbm(-102.5-1.5); got != want {
		t.Errorf("SubDb = %g, want %g", got.V(), want.V())
	}
	if got, want := units.Dbm(-95).Sub(rsrp), units.Db(-95-(-102.5)); got != want {
		t.Errorf("Sub = %g, want %g", got.V(), want.V())
	}
}

func TestMegaHz(t *testing.T) {
	if got := units.MegaHz(1930).Hz(); got != units.Hz(1.93e9) {
		t.Errorf("1930 MHz = %g Hz", got.V())
	}
	// The documented reason carrier storage stays in MHz: fractional
	// carriers keep their exact stored representation.
	f := units.MegaHz(2112.4)
	if f.V() != 2112.4 {
		t.Error("MegaHz must not perturb its stored value")
	}
}
