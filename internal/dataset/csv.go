package dataset

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"
)

// The paper released its mobility configuration dataset publicly
// (appendix); CSV export makes ours consumable by the same pandas/R
// toolchains JSONL-averse analysts use.

// d1Header is the flat D1 schema.
var d1Header = []string{
	"carrier", "city", "kind", "event", "t_ms", "report_t_ms",
	"from_cell", "to_cell", "from_freq", "to_freq", "from_rat", "to_rat",
	"from_prio", "to_prio", "rsrp_old", "rsrp_new", "rsrq_old", "rsrq_new",
	"quantity", "offset", "hysteresis", "threshold1", "threshold2", "ttt_ms",
	"min_thpt_bps",
}

// WriteD1CSV writes handoff instances as a flat CSV table.
func WriteD1CSV(w io.Writer, records []D1Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(d1Header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i := range records {
		r := &records[i]
		row := []string{
			r.Carrier, r.City, r.Kind, r.Event,
			strconv.FormatInt(r.TimeMs, 10), strconv.FormatInt(r.ReportTimeMs, 10),
			strconv.FormatUint(uint64(r.FromCellID), 10), strconv.FormatUint(uint64(r.ToCellID), 10),
			strconv.FormatUint(uint64(r.FromEARFCN), 10), strconv.FormatUint(uint64(r.ToEARFCN), 10),
			r.FromRAT, r.ToRAT,
			strconv.Itoa(r.FromPriority), strconv.Itoa(r.ToPriority),
			f(r.RSRPOld), f(r.RSRPNew), f(r.RSRQOld), f(r.RSRQNew),
			r.Quantity, f(r.Offset), f(r.Hysteresis), f(r.Threshold1), f(r.Threshold2),
			strconv.Itoa(r.TTTMs), f(r.MinThptBefore),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// d2Header is the long-format D2 schema: one row per observed parameter
// value (the paper's per-sample accounting).
var d2Header = []string{
	"carrier", "city", "cell", "pci", "freq", "rat", "t_ms", "round",
	"x", "y", "param", "value",
}

// WriteD2CSV writes configuration snapshots in long format, one row per
// parameter sample.
func WriteD2CSV(w io.Writer, snaps []D2Snapshot) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(d2Header); err != nil {
		return err
	}
	for i := range snaps {
		s := &snaps[i]
		base := []string{
			s.Carrier, s.City,
			strconv.FormatUint(uint64(s.CellID), 10), strconv.FormatUint(uint64(s.PCI), 10),
			strconv.FormatUint(uint64(s.EARFCN), 10), s.RAT,
			strconv.FormatUint(s.TimeMs, 10), strconv.Itoa(s.Round),
			strconv.FormatFloat(s.PosX, 'f', 1, 64), strconv.FormatFloat(s.PosY, 'f', 1, 64),
		}
		params := make([]string, 0, len(s.Params))
		for p := range s.Params {
			params = append(params, p)
		}
		sort.Strings(params)
		for _, p := range params {
			for _, v := range s.Params[p] {
				row := append(append([]string(nil), base...), p, strconv.FormatFloat(v, 'g', -1, 64))
				if err := cw.Write(row); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
