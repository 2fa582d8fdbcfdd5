// Package config defines the handoff configuration schema the paper
// studies: every tunable parameter of Table 2 with its 3GPP value
// domain and quantization, grouped into the serving-cell (SIB3),
// per-frequency (SIB5/6/7/8) and event (measConfig) structures in which
// cells broadcast them, plus the per-RAT parameter catalogs whose sizes
// Table 4 reports (LTE 66, UMTS 64, GSM 9, EVDO 14, CDMA1x 4).
package config

import "fmt"

// RAT is a radio access technology generation/family (paper §2, Table 4).
type RAT uint8

// The five RATs the paper's dataset covers.
const (
	RATLTE    RAT = iota // 4G LTE
	RATUMTS              // 3G WCDMA/UMTS family
	RATGSM               // 2G GSM
	RATEVDO              // 3G CDMA2000 EV-DO (Verizon/Sprint/China Telecom)
	RATCDMA1x            // 2G CDMA 1x
	numRATs
)

// AllRATs lists every RAT in canonical order.
func AllRATs() []RAT {
	return []RAT{RATLTE, RATUMTS, RATGSM, RATEVDO, RATCDMA1x}
}

// String implements fmt.Stringer.
func (r RAT) String() string {
	switch r {
	case RATLTE:
		return "LTE"
	case RATUMTS:
		return "UMTS"
	case RATGSM:
		return "GSM"
	case RATEVDO:
		return "EVDO"
	case RATCDMA1x:
		return "CDMA1x"
	default:
		return fmt.Sprintf("RAT(%d)", uint8(r))
	}
}

// Valid reports whether r names a real RAT.
func (r RAT) Valid() bool { return r < numRATs }

// Quantity identifies which radio measurement a threshold or event is
// evaluated against. The paper uses RSRP/RSRQ for LTE (§2.2); the 3G
// equivalents RSCP/EcNo map onto the same two slots so inter-RAT events
// (B1/B2) can carry them uniformly.
type Quantity uint8

// Measurement quantities.
const (
	RSRP Quantity = iota // reference signal received power (dBm)
	RSRQ                 // reference signal received quality (dB)
	numQuantities
)

// String implements fmt.Stringer.
func (q Quantity) String() string {
	switch q {
	case RSRP:
		return "RSRP"
	case RSRQ:
		return "RSRQ"
	default:
		return fmt.Sprintf("Quantity(%d)", uint8(q))
	}
}

// Valid reports whether q is a known quantity.
func (q Quantity) Valid() bool { return q < numQuantities }

// EventType enumerates the LTE measurement-reporting events (TS 36.331
// §5.5.4). The paper observes only A1–A5, B1, B2 and periodic reports in
// the wild (§2.2, §4.1); A6/C1/C2 exist in the standard but never appear.
type EventType uint8

// Reporting events.
const (
	EventA1       EventType = iota // serving becomes better than threshold
	EventA2                        // serving becomes worse than threshold
	EventA3                        // neighbor becomes offset better than serving
	EventA4                        // neighbor becomes better than threshold
	EventA5                        // serving worse than thresh1 AND neighbor better than thresh2
	EventA6                        // neighbor becomes offset better than SCell (CA; unobserved)
	EventB1                        // inter-RAT neighbor better than threshold
	EventB2                        // serving worse than thresh1 AND inter-RAT neighbor better than thresh2
	EventC1                        // CSI-RS resource better than threshold (unobserved)
	EventC2                        // CSI-RS resource offset better than reference (unobserved)
	EventPeriodic                  // periodic reporting of strongest cells ("P" in the paper)
	numEventTypes
)

// String implements fmt.Stringer.
func (e EventType) String() string {
	switch e {
	case EventA1:
		return "A1"
	case EventA2:
		return "A2"
	case EventA3:
		return "A3"
	case EventA4:
		return "A4"
	case EventA5:
		return "A5"
	case EventA6:
		return "A6"
	case EventB1:
		return "B1"
	case EventB2:
		return "B2"
	case EventC1:
		return "C1"
	case EventC2:
		return "C2"
	case EventPeriodic:
		return "P"
	default:
		return fmt.Sprintf("Event(%d)", uint8(e))
	}
}

// Valid reports whether e is a known event type.
func (e EventType) Valid() bool { return e < numEventTypes }

// InterRAT reports whether the event measures cells of another RAT.
func (e EventType) InterRAT() bool { return e == EventB1 || e == EventB2 }

// NeedsNeighbor reports whether the event's entering condition involves a
// neighbor-cell measurement (as opposed to serving-only A1/A2).
func (e EventType) NeedsNeighbor() bool {
	switch e {
	case EventA3, EventA4, EventA5, EventA6, EventB1, EventB2, EventC1, EventC2, EventPeriodic:
		return true
	default:
		return false
	}
}
