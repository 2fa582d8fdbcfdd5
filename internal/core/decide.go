package core

import (
	"hash/fnv"

	"mmlab/internal/config"
	"mmlab/internal/units"
)

// Decision is the network's response to a measurement report.
type Decision struct {
	Handoff bool
	Target  config.CellIdentity
	// ExecuteAt is when the handover command reaches the UE — the paper
	// observes handoffs "within 80-230 ms" of the decisive report (§4.1).
	ExecuteAt Clock
}

// The network's proprietary decision margins. predict assumes the same
// values on the device side.
const (
	// PeriodicMargin is the vendor margin a neighbor must beat the serving
	// cell by for a periodic-report handoff.
	PeriodicMargin units.Db = 2
	// A2Emergency is the serving RSRP below which an A2 report triggers a
	// rescue redirection. A2 alone "should not trigger a handoff unless
	// there is a strong candidate cell" (§4.1); real networks use it to
	// salvage a dying link, which is why A2-decisive handoffs are rare
	// (1.7 % in AT&T, Fig. 5a).
	A2Emergency units.Dbm = -126
	// SanityMargin guards absolute-threshold events (A4/A5/B1/B2): the
	// target may be up to this many dB weaker than the serving cell but no
	// more. The paper notes radio evaluation is "a necessary but not a
	// sufficient condition" for the proprietary active-state decision
	// (§2.2 citing [22]); without this guard, AT&T's ΘA5,S = −44 setting
	// would hand off to arbitrarily weak cells in loops. The margin still
	// lets ~half of A5 handoffs land on weaker cells (Fig. 6).
	SanityMargin units.Db = 6
)

// Decider is the network (serving eNodeB) side of the active-state
// handoff decision (Fig. 1 step 4). The paper finds the decision is
// "determined by the last reporting event": an A3/A4/A5 report hands off
// to the best reported neighbor; a periodic report hands off when a
// neighbor beats the serving cell by PeriodicMargin; an A2 report can
// trigger a blind redirection to the best neighbor it carries; A1 never
// causes a handoff.
type Decider struct {
	serving *config.CellConfig
}

// NewDecider builds the decision logic for a serving cell.
func NewDecider(serving *config.CellConfig) *Decider {
	return &Decider{serving: serving}
}

// forbidden reports whether a target cell is barred by SIB4.
func (d *Decider) forbidden(cell config.CellIdentity) bool {
	for _, id := range d.serving.ForbiddenCells {
		if id == cell.CellID {
			return true
		}
	}
	return false
}

// OnReport decides whether to hand off in response to a report.
func (d *Decider) OnReport(rep Report) Decision {
	var target *MeasEntry
	switch rep.Event {
	case config.EventA3:
		// A3's semantics are already relative (target offset-better than
		// serving); take the strongest non-forbidden reported cell.
		for i := range rep.Neighbors {
			if !d.forbidden(rep.Neighbors[i].Cell) {
				target = &rep.Neighbors[i]
				break
			}
		}
	case config.EventA4, config.EventA5, config.EventB1, config.EventB2:
		// Absolute-threshold events guarantee only the thresholds, not a
		// better target. Every reported cell satisfying the sanity margin
		// is eligible, and the network picks among them by proprietary
		// criteria (load, retainability, ...) rather than best-radio —
		// which is why "only 52% of [A5] handoffs get better in terms of
		// RSRP" in the paper (§4.1). We model the choice as a
		// deterministic hash over the eligible set.
		var eligible []*MeasEntry
		for i := range rep.Neighbors {
			n := &rep.Neighbors[i]
			if d.forbidden(n.Cell) {
				continue
			}
			if n.value(rep.Quantity) > rep.Serving.value(rep.Quantity).SubDb(SanityMargin) {
				eligible = append(eligible, n)
			}
		}
		if len(eligible) > 0 {
			target = eligible[int(pickHash(rep)%uint64(len(eligible)))]
		}
	case config.EventPeriodic:
		for i := range rep.Neighbors {
			n := &rep.Neighbors[i]
			if d.forbidden(n.Cell) {
				continue
			}
			if n.value(rep.Quantity) > rep.Serving.value(rep.Quantity).Add(PeriodicMargin) {
				target = n
				break
			}
		}
	case config.EventA2:
		// Emergency redirection: only once the serving link is truly dying
		// and the report carries a clearly better neighbor.
		if rep.Serving.RSRP >= A2Emergency {
			break
		}
		for i := range rep.Neighbors {
			n := &rep.Neighbors[i]
			if d.forbidden(n.Cell) {
				continue
			}
			if n.RSRP > rep.Serving.RSRP+3 && n.RSRP > -124 {
				target = n
				break
			}
		}
	default:
		// A1 and unknown events never cause handoffs.
	}
	if target == nil || target.Cell == rep.Serving.Cell {
		return Decision{}
	}
	return Decision{
		Handoff:   true,
		Target:    target.Cell,
		ExecuteAt: rep.Time + execDelay(rep),
	}
}

// pickHash derives a stable index seed for the proprietary target choice.
func pickHash(rep Report) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(rep.Time) >> (8 * i))
	}
	h.Write(b[:])
	for i := 0; i < 4; i++ {
		b[i] = byte(rep.Serving.Cell.CellID >> (8 * i))
	}
	h.Write(b[:4])
	h.Write([]byte{0x5A, byte(rep.Event)})
	return h.Sum64()
}

// execDelay reproduces the paper's observed 80–230 ms report→handoff gap,
// deterministically per report.
func execDelay(rep Report) Clock {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(rep.Time) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte{byte(rep.Event)})
	for i := 0; i < 4; i++ {
		b[i] = byte(rep.Serving.Cell.CellID >> (8 * i))
	}
	h.Write(b[:4])
	return 80 + Clock(h.Sum64()%151) // 80..230 ms
}

// InterruptionMs is the user-plane outage during handoff execution
// (detach from source, random access on target). Typical LTE X2 handoff
// interruption is a few tens of milliseconds.
const InterruptionMs = 50
