// Package dataset defines the paper's two datasets and their storage:
// D1 — handoff instances from Type-II drive experiments (>18,700 in the
// paper: 14,510 active 4G→4G + 4,263 idle), and D2 — configuration
// snapshots crawled from cells (32,033 unique cells, 7,996,149 parameter
// samples). Records serialize as JSON lines; queries implement the
// paper's cleaning rules (unique samples per cell, §5.1).
package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mmlab/internal/config"
)

// D1Record is one handoff instance.
type D1Record struct {
	Carrier string `json:"carrier"`
	City    string `json:"city"`
	Kind    string `json:"kind"`  // "active" | "idle"
	Event   string `json:"event"` // decisive event: A1..A5, B1, B2, P ("" for idle)

	TimeMs       int64 `json:"t"`
	ReportTimeMs int64 `json:"tReport,omitempty"`

	FromCellID uint32 `json:"fromCell"`
	ToCellID   uint32 `json:"toCell"`
	FromEARFCN uint32 `json:"fromFreq"`
	ToEARFCN   uint32 `json:"toFreq"`
	FromRAT    string `json:"fromRAT"`
	ToRAT      string `json:"toRAT"`

	FromPriority int `json:"fromPrio"`
	ToPriority   int `json:"toPrio"`

	RSRPOld float64 `json:"rsrpOld"`
	RSRPNew float64 `json:"rsrpNew"`
	RSRQOld float64 `json:"rsrqOld"`
	RSRQNew float64 `json:"rsrqNew"`

	// Decisive event configuration (active-state).
	Quantity   string  `json:"quantity,omitempty"`
	Offset     float64 `json:"offset,omitempty"`
	Hysteresis float64 `json:"hyst,omitempty"`
	Threshold1 float64 `json:"th1,omitempty"`
	Threshold2 float64 `json:"th2,omitempty"`
	TTTMs      int     `json:"ttt,omitempty"`

	// MinThptBefore is the minimum 100 ms throughput in the 5 s before the
	// decisive report, bps; -1 without traffic.
	MinThptBefore float64 `json:"minThpt"`

	// PingPong marks a handoff back to the previous serving cell within
	// the TS 36.300 ping-pong window. Only emitted by fault-enabled
	// campaigns (omitted otherwise, keeping legacy datasets byte-stable).
	PingPong bool `json:"pingpong,omitempty"`
}

// DeltaRSRP returns RSRPNew − RSRPOld (the paper's δRSRP).
func (r D1Record) DeltaRSRP() float64 { return r.RSRPNew - r.RSRPOld }

// IntraFreq reports whether the handoff stayed on its channel.
func (r D1Record) IntraFreq() bool {
	return r.FromRAT == r.ToRAT && r.FromEARFCN == r.ToEARFCN
}

// PriorityRelation classifies the target priority against the source
// ("higher", "equal", "lower") — Fig. 10's three cases.
func (r D1Record) PriorityRelation() string {
	switch {
	case r.ToPriority > r.FromPriority:
		return "higher"
	case r.ToPriority < r.FromPriority:
		return "lower"
	default:
		return "equal"
	}
}

// D1 is a handoff-instance dataset.
type D1 struct {
	Records []D1Record
}

// Active returns the active-state subset.
func (d *D1) Active() []D1Record { return d.byKind("active") }

// Idle returns the idle-state subset.
func (d *D1) Idle() []D1Record { return d.byKind("idle") }

func (d *D1) byKind(kind string) []D1Record {
	var out []D1Record
	for _, r := range d.Records {
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

// ByCarrier splits records per carrier acronym.
func (d *D1) ByCarrier() map[string][]D1Record {
	out := map[string][]D1Record{}
	for _, r := range d.Records {
		out[r.Carrier] = append(out[r.Carrier], r)
	}
	return out
}

// WriteD1 streams records as JSON lines.
func WriteD1(w io.Writer, records []D1Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return fmt.Errorf("dataset: writing D1 record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadD1 loads a JSON-lines D1 file.
func ReadD1(r io.Reader) (*D1, error) {
	d := &D1{}
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var rec D1Record
		if err := dec.Decode(&rec); err == io.EOF {
			return d, nil
		} else if err != nil {
			return nil, fmt.Errorf("dataset: reading D1: %w", err)
		}
		d.Records = append(d.Records, rec)
	}
}

// D2Snapshot is one crawl round of one cell: every parameter value the
// device-side crawler extracted from the cell's signaling.
type D2Snapshot struct {
	Carrier string `json:"carrier"`
	City    string `json:"city"`

	CellID uint32 `json:"cell"`
	PCI    uint16 `json:"pci"`
	EARFCN uint32 `json:"freq"`
	RAT    string `json:"rat"`

	TimeMs uint64 `json:"t"`
	Round  int    `json:"round"`

	PosX float64 `json:"x"`
	PosY float64 `json:"y"`

	// Params maps parameter name → observed values (per-frequency
	// parameters have one value per advertised frequency).
	Params map[string][]float64 `json:"params"`

	// Freqs preserves the per-frequency association the flat Params map
	// loses: one entry per advertised candidate frequency, used by the
	// frequency-dependence analyses (Figs. 18–19).
	Freqs []FreqObs `json:"freqs,omitempty"`
}

// FreqObs is one advertised candidate frequency with its priority.
type FreqObs struct {
	EARFCN   uint32 `json:"freq"`
	RAT      string `json:"rat"`
	Priority int    `json:"prio"`
}

// SampleCount returns the number of parameter samples in this snapshot
// (each observed value counts as one sample, §5).
func (s *D2Snapshot) SampleCount() int {
	n := 0
	for _, vs := range s.Params {
		n += len(vs)
	}
	return n
}

// D2 is a configuration-snapshot dataset.
type D2 struct {
	Snapshots []D2Snapshot
}

// WriteD2 streams snapshots as JSON lines.
func WriteD2(w io.Writer, snaps []D2Snapshot) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range snaps {
		if err := enc.Encode(&snaps[i]); err != nil {
			return fmt.Errorf("dataset: writing D2 snapshot %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadD2 loads a JSON-lines D2 file.
func ReadD2(r io.Reader) (*D2, error) {
	d := &D2{}
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var s D2Snapshot
		if err := dec.Decode(&s); err == io.EOF {
			return d, nil
		} else if err != nil {
			return nil, fmt.Errorf("dataset: reading D2: %w", err)
		}
		d.Snapshots = append(d.Snapshots, s)
	}
}

// cellKey identifies a cell across snapshots.
type cellKey struct {
	Carrier string
	CellID  uint32
}

// UniqueCells counts distinct cells.
func (d *D2) UniqueCells() int {
	seen := map[cellKey]bool{}
	for i := range d.Snapshots {
		s := &d.Snapshots[i]
		seen[cellKey{s.Carrier, s.CellID}] = true
	}
	return len(seen)
}

// TotalSamples counts every parameter value observed.
func (d *D2) TotalSamples() int {
	n := 0
	for i := range d.Snapshots {
		n += d.Snapshots[i].SampleCount()
	}
	return n
}

// Carriers returns the carrier acronyms present, sorted.
func (d *D2) Carriers() []string {
	seen := map[string]bool{}
	for i := range d.Snapshots {
		seen[d.Snapshots[i].Carrier] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// ParamValues gathers a parameter's values for one carrier with the
// paper's cleaning rule: "we consider unique samples, so as not to tip
// distributions in favor of cells with many same samples" (§5.1) — each
// cell contributes each distinct value once. rat filters by RAT name
// ("" = all).
func (d *D2) ParamValues(carrierAcr, rat, param string) []float64 {
	perCell := map[cellKey]map[float64]bool{}
	for i := range d.Snapshots {
		s := &d.Snapshots[i]
		if carrierAcr != "" && s.Carrier != carrierAcr {
			continue
		}
		if rat != "" && s.RAT != rat {
			continue
		}
		vs, ok := s.Params[param]
		if !ok {
			continue
		}
		k := cellKey{s.Carrier, s.CellID}
		if perCell[k] == nil {
			perCell[k] = map[float64]bool{}
		}
		for _, v := range vs {
			perCell[k][v] = true
		}
	}
	var out []float64
	for _, set := range perCell {
		for v := range set {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}

// GroupParamValues is ParamValues split by a per-snapshot key (frequency,
// city, ...). Dedup applies within each group.
func (d *D2) GroupParamValues(carrierAcr, rat, param string, key func(*D2Snapshot) string) map[string][]float64 {
	type gk struct {
		group string
		cell  cellKey
	}
	per := map[gk]map[float64]bool{}
	for i := range d.Snapshots {
		s := &d.Snapshots[i]
		if carrierAcr != "" && s.Carrier != carrierAcr {
			continue
		}
		if rat != "" && s.RAT != rat {
			continue
		}
		vs, ok := s.Params[param]
		if !ok {
			continue
		}
		k := gk{key(s), cellKey{s.Carrier, s.CellID}}
		if per[k] == nil {
			per[k] = map[float64]bool{}
		}
		for _, v := range vs {
			per[k][v] = true
		}
	}
	out := map[string][]float64{}
	for k, set := range per {
		for v := range set {
			out[k.group] = append(out[k.group], v)
		}
	}
	for g := range out {
		sort.Float64s(out[g])
	}
	return out
}

// SnapshotParams extracts every observable parameter of a reconstructed
// cell configuration via the standard catalogs — the step that turns a
// decoded broadcast into D2 rows.
func SnapshotParams(c *config.CellConfig) map[string][]float64 {
	out := map[string][]float64{}
	for _, p := range config.ObservableParams(c.Identity.RAT) {
		if vs := p.Extract(c); len(vs) > 0 {
			out[p.Name] = vs
		}
	}
	return out
}
