// Package client seeds one violation per units rule, plus the legal
// idioms that must stay silent.
package client

import "mmlab/internal/units"

type eventConfig struct {
	Threshold units.Dbm
	Offset    units.Db
	TTT       units.Millis
}

// The classic silent dB/dBm swap: both are float64 underneath, so the
// conversion compiles.
func swap(rsrp units.Dbm) units.Db {
	return units.Db(rsrp) // want "crosses unit axes"
}

// Laundering a unit back into a bare number hides the axis from grep.
func launder(rsrp units.Dbm) float64 {
	return float64(rsrp) // want "launders units.Dbm"
}

// The sanctioned unwrap and wrap forms stay silent.
func okBoundary(raw float64, rsrp units.Dbm) (float64, units.Dbm) {
	return rsrp.V(), units.Dbm(raw)
}

// Two absolute levels cannot be summed; the level axis is affine.
func badSum(a, b units.Dbm) units.Dbm {
	return a + b // want "sum of two absolute dBm levels"
}

// A raw difference of levels is a relative dB wearing the wrong type.
func badDiff(a, b units.Dbm) units.Dbm {
	return a - b // want "difference of two absolute dBm levels"
}

// Scaling a logarithmic level is dimensionless soup.
func badScale(a units.Dbm) units.Dbm {
	return a * 2 // want "scaling an absolute dBm level"
}

// The helper forms are the legal spellings of the same physics.
func okHelpers(a, b units.Dbm, off units.Db) (units.Dbm, units.Db) {
	return a.Add(off).SubDb(off), a.Sub(b)
}

// Shifting a level by a literal offset and comparing same-axis values
// are both fine; relative quantities form a vector space.
func okRelative(a units.Dbm, x, y units.Db) bool {
	return a > -110 && x+y > 0
}

func threshold(t units.Dbm) bool { return t > -44 }

// A bare literal argument says nothing about its axis.
func badLiteralArg() bool {
	return threshold(-100) // want "bare numeric literal for units.Dbm parameter"
}

func okTypedArg() bool {
	return threshold(units.Dbm(-100))
}

// Struct construction with a bare literal hides the field's unit.
func badLiteralField() eventConfig {
	return eventConfig{
		Threshold: -106, // want "bare numeric literal for units.Dbm field Threshold"
		Offset:    units.Db(3),
		TTT:       320, // want "bare numeric literal for units.Millis field TTT"
	}
}

// An annotated violation with a reason is suppressed; the slice literal
// states its element unit at the site and is always fine.
func okAnnotated(rsrp units.Dbm) units.Db {
	offs := []units.Db{5, 12}
	//mmvet:allow units RSRQ rides the level axis in this quantizer shim
	return units.Db(rsrp) + offs[0]
}
