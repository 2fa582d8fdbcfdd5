// Package units defines the dimensional types for the physical
// quantities the paper's configuration space is made of: absolute power
// levels in dBm, relative level differences in dB, timer durations in
// milliseconds, distances in meters, and carrier frequencies. The types
// are zero-cost compile-time wrappers — defined types over float64 and
// int64 with no String/Format/Marshal methods — so every wire encoding,
// JSON serialization, and fmt verb produces bytes identical to the bare
// numeric types they replace. Their entire purpose is to make a dB/dBm
// or ms/ticks mix-up a compile error (or an mmvet `units` finding)
// instead of a subtly wrong failure taxonomy.
//
// The legal cross-dimension operations are the explicit helpers below;
// mmvet's units analyzer flags everything else: arithmetic or
// comparisons mixing distinct unit types, conversions between unit
// types, and conversions that launder a unit back into a bare number
// (use V() — greppable, and exempt inside this package).
package units

// Dbm is an absolute power level in dBm: RSRP, q-RxLevMin, s-Measure,
// transmit power, A1/A2/A4/A5 RSRP thresholds.
type Dbm float64

// Db is a relative level difference in dB: offsets, hysteresis,
// q-OffsetFreq/cell offsets, search thresholds above Δmin, path loss,
// shadowing — and RSRQ, which 3GPP treats as a quality level on its own
// dB scale.
type Db float64

// Millis is a duration in milliseconds: TimeToTrigger, ReportInterval,
// RLF timers. Int-backed because 3GPP enumerates these as integral ms.
type Millis int64

// Meters is a distance.
type Meters float64

// MegaHz is a carrier frequency in MHz — the unit band tables and
// path-loss formulas use natively. Stored in MHz (not converted through
// Hz) so fractional carriers like 2112.4 MHz keep their exact float64
// representation.
type MegaHz float64

// Hz is a frequency in Hz, for quantities that are exact in Hz (e.g.
// the 15 kHz LTE subcarrier spacing).
type Hz float64

// V unwraps to the bare number for I/O boundaries (wire codecs, JSON
// field extraction, math.* calls). Using V() instead of a float64(x)
// conversion keeps unit-laundering explicit and greppable.
func (d Dbm) V() float64 { return float64(d) }

// V unwraps to the bare number; see Dbm.V.
func (d Db) V() float64 { return float64(d) }

// V unwraps to the bare millisecond count; see Dbm.V.
func (m Millis) V() int64 { return int64(m) }

// V unwraps to the bare number; see Dbm.V.
func (m Meters) V() float64 { return float64(m) }

// V unwraps to the bare number; see Dbm.V.
func (f MegaHz) V() float64 { return float64(f) }

// V unwraps to the bare number; see Dbm.V.
func (f Hz) V() float64 { return float64(f) }

// Add shifts an absolute level by a relative difference:
// threshold = rsrp + offset.
func (d Dbm) Add(o Db) Dbm { return d + Dbm(o) }

// SubDb shifts an absolute level down by a relative difference:
// rsrp − hysteresis.
func (d Dbm) SubDb(o Db) Dbm { return d - Dbm(o) }

// Sub is the difference of two absolute levels, which is a relative one:
// rsrp₁ − rsrp₂ = Δ dB.
func (d Dbm) Sub(o Dbm) Db { return Db(d - o) }

// LevelFromDb places a dB-scale quality value (RSRQ) on the absolute
// level axis. 3GPP's threshold IE is a CHOICE between an RSRP-range and
// an RSRQ-range member; trigger evaluation compares whichever member is
// configured on a single axis, and this is the one explicit crossing
// point for the RSRQ leg.
func LevelFromDb(d Db) Dbm { return Dbm(d) }

// Hz converts an exact MHz quantity to Hz. Lossy for carriers whose MHz
// value is not exactly representable times 1e6 — keep carrier storage
// in MegaHz and convert only where exactness is known.
func (f MegaHz) Hz() Hz { return Hz(float64(f) * 1e6) }
