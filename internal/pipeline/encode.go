package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"mmlab/internal/config"
	"mmlab/internal/crawler"
)

// flushAt is how many encoded bytes the checkpoint encoder collects
// before handing them to the writer.
const flushAt = 32 << 10

// cpEncoder writes a checkpoint as the exact bytes encoding/json's
// Encoder writes for it, without reflection: fields in struct order
// under their json tags or Go names, omitempty where the tags say it,
// null for nil slices and maps, map keys sorted as decimal strings,
// floats in encoding/json's format and strings HTML-escaped. It appends
// into buf and writes buf out at element boundaries once it holds
// flushAt bytes. The first error stops all further writes.
type cpEncoder struct {
	w   io.Writer
	buf []byte
	err error

	// Reused key scratch; no map of one key type nests in another.
	ints []int
	pcis []uint16
	strs []string
}

func (e *cpEncoder) raw(s string) { e.buf = append(e.buf, s...) }

// i64, u64, f64 and str write pre, the JSON text before the value (a
// field's key, say), and then the value.
func (e *cpEncoder) i64(pre string, v int64) {
	e.raw(pre)
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

func (e *cpEncoder) u64(pre string, v uint64) {
	e.raw(pre)
	e.buf = strconv.AppendUint(e.buf, v, 10)
}

// f64 follows encoding/json: 'f' format, or 'e' below 1e-6 and from
// 1e21 in magnitude with a one-digit negative exponent unpadded
// ("e-7", not "e-07"); NaN and ±Inf are errors. Integers below 1e15
// are exact in a float64 and print the same through AppendInt, except
// that -0 keeps its sign.
func (e *cpEncoder) f64(pre string, f float64) {
	e.raw(pre)
	abs := math.Abs(f)
	switch {
	case math.IsNaN(f) || math.IsInf(f, 0):
		if e.err == nil {
			e.err = fmt.Errorf("pipeline: encoding checkpoint: unsupported value %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
	case f == 0 && math.Signbit(f):
		e.raw("-0")
	case abs < 1e15 && f == math.Trunc(f):
		e.i64("", int64(f))
	case abs < 1e-6 || abs >= 1e21:
		e.buf = strconv.AppendFloat(e.buf, f, 'e', -1, 64)
		if n := len(e.buf); e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	default:
		e.buf = strconv.AppendFloat(e.buf, f, 'f', -1, 64)
	}
}

// str writes plain printable ASCII directly and leaves every string
// that needs escaping (quotes, controls, HTML characters, non-ASCII or
// invalid UTF-8) to encoding/json.
func (e *cpEncoder) str(pre, s string) {
	e.raw(pre)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			e.buf = append(e.buf, b...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// flush writes the buffered bytes once there are flushAt of them.
func (e *cpEncoder) flush() {
	if len(e.buf) >= flushAt {
		e.write()
	}
}

func (e *cpEncoder) write() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// list writes s as a JSON array, or null when s is nil.
func list[T any](e *cpEncoder, s []T, elem func(*T)) {
	if s == nil {
		e.raw("null")
		return
	}
	e.buf = append(e.buf, '[')
	for i := range s {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		elem(&s[i])
	}
	e.buf = append(e.buf, ']')
}

// sortedKeys collects m's keys into scratch and sorts them as
// encoding/json orders integer map keys: by their decimal strings, so
// 10 comes before 2.
func sortedKeys[K int | uint16, V any](scratch []K, m map[K]V) []K {
	keys := scratch[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b K) int {
		var x, y [24]byte
		return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
	})
	return keys
}

// Encode writes the checkpoint as deterministic compact JSON: one line,
// fields in struct order, map keys sorted, ending in a newline. The
// bytes are exactly what json.NewEncoder(w).Encode(cp) writes; the
// resume section goes through encoding/json itself. Every checkpoint
// file is written through it, so equal checkpoints are equal bytes on
// disk. On an error (a NaN or infinite value, or a failed write) part
// of the checkpoint may already have been written. LoadCheckpoint
// ignores whitespace, so indented checkpoint files load too.
func (cp *Checkpoint) Encode(w io.Writer) error {
	e := &cpEncoder{w: w, buf: make([]byte, 0, 2*flushAt)}
	e.raw(`{"streams":`)
	list(e, cp.Streams, e.stream)
	e.raw(`,"carriers":`)
	list(e, cp.Carriers, e.carrier)
	if len(cp.Resume) > 0 {
		b, err := json.Marshal(cp.Resume)
		if err != nil && e.err == nil {
			e.err = err
		}
		e.raw(`,"resume":`)
		e.buf = append(e.buf, b...)
	}
	e.raw("}\n")
	e.write()
	return e.err
}

func (e *cpEncoder) stream(s *StreamCheckpoint) {
	e.str(`{"carrier":`, s.Carrier)
	e.str(`,"stream":`, s.Stream)
	e.raw(`,"snapshots":`)
	list(e, s.Snapshots, e.snapshot)
	if len(s.Events) > 0 {
		e.raw(`,"events":`)
		list(e, s.Events, e.event)
	}
	e.raw("}")
}

func (e *cpEncoder) snapshot(s *crawler.ConfigSnapshot) {
	e.raw(`{"Identity":`)
	e.identity(&s.Identity)
	e.u64(`,"TimeMs":`, s.TimeMs)
	e.raw(`,"Config":`)
	e.cellConfig(&s.Config)
	e.raw("}")
	e.flush()
}

func (e *cpEncoder) event(h *crawler.HandoffEvent) {
	e.u64(`{"ReportTimeMs":`, h.ReportTimeMs)
	e.u64(`,"ExecTimeMs":`, h.ExecTimeMs)
	e.u64(`,"Event":`, uint64(h.Event))
	e.raw(`,"Serving":`)
	e.identity(&h.Serving)
	e.f64(`,"ServingRSRP":`, h.ServingRSRP.V())
	e.f64(`,"ServingRSRQ":`, h.ServingRSRQ.V())
	e.raw(`,"BestNeighbor":`)
	e.identity(&h.BestNeighbor)
	e.f64(`,"NeighborRSRP":`, h.NeighborRSRP.V())
	e.raw(`,"Target":`)
	e.identity(&h.Target)
	e.raw("}")
	e.flush()
}

func (e *cpEncoder) identity(id *config.CellIdentity) {
	e.u64(`{"CellID":`, uint64(id.CellID))
	e.u64(`,"PCI":`, uint64(id.PCI))
	e.u64(`,"EARFCN":`, uint64(id.EARFCN))
	e.u64(`,"RAT":`, uint64(id.RAT))
	e.raw("}")
}

func (e *cpEncoder) cellConfig(c *config.CellConfig) {
	e.raw(`{"Identity":`)
	e.identity(&c.Identity)
	e.f64(`,"TxPowerDBm":`, c.TxPowerDBm.V())
	e.raw(`,"Serving":`)
	e.serving(&c.Serving)
	e.raw(`,"Freqs":`)
	list(e, c.Freqs, e.freq)
	e.raw(`,"Meas":`)
	e.meas(&c.Meas)
	e.raw(`,"ForbiddenCells":`)
	list(e, c.ForbiddenCells, func(id *uint32) { e.u64("", uint64(*id)) })
	e.raw("}")
}

func (e *cpEncoder) serving(s *config.ServingCellConfig) {
	e.i64(`{"Priority":`, int64(s.Priority))
	e.f64(`,"QHyst":`, s.QHyst.V())
	e.f64(`,"SIntraSearch":`, s.SIntraSearch.V())
	e.f64(`,"SIntraSearchQ":`, s.SIntraSearchQ.V())
	e.f64(`,"SNonIntraSearch":`, s.SNonIntraSearch.V())
	e.f64(`,"SNonIntraSearchQ":`, s.SNonIntraSearchQ.V())
	e.f64(`,"QRxLevMin":`, s.QRxLevMin.V())
	e.f64(`,"QQualMin":`, s.QQualMin.V())
	e.f64(`,"ThreshServingLow":`, s.ThreshServingLow.V())
	e.f64(`,"ThreshServingLowQ":`, s.ThreshServingLowQ.V())
	e.i64(`,"TReselectionSec":`, int64(s.TReselectionSec))
	e.i64(`,"THigherMeasSec":`, int64(s.THigherMeasSec))
	sc := &s.SpeedScaling
	e.raw(`,"SpeedScaling":{"Enabled":`)
	e.buf = strconv.AppendBool(e.buf, sc.Enabled)
	e.i64(`,"NCellChangeMedium":`, int64(sc.NCellChangeMedium))
	e.i64(`,"NCellChangeHigh":`, int64(sc.NCellChangeHigh))
	e.i64(`,"TEvaluationSec":`, int64(sc.TEvaluationSec))
	e.i64(`,"THystNormalSec":`, int64(sc.THystNormalSec))
	e.f64(`,"TReselectionSFMedium":`, sc.TReselectionSFMedium)
	e.f64(`,"TReselectionSFHigh":`, sc.TReselectionSFHigh)
	e.f64(`,"QHystSFMedium":`, sc.QHystSFMedium.V())
	e.f64(`,"QHystSFHigh":`, sc.QHystSFHigh.V())
	e.raw("}}")
}

func (e *cpEncoder) freq(f *config.FreqRelation) {
	e.u64(`{"EARFCN":`, uint64(f.EARFCN))
	e.u64(`,"RAT":`, uint64(f.RAT))
	e.i64(`,"Priority":`, int64(f.Priority))
	e.f64(`,"ThreshHigh":`, f.ThreshHigh.V())
	e.f64(`,"ThreshLow":`, f.ThreshLow.V())
	e.f64(`,"QRxLevMin":`, f.QRxLevMin.V())
	e.f64(`,"QOffsetFreq":`, f.QOffsetFreq.V())
	e.i64(`,"TReselectionSec":`, int64(f.TReselectionSec))
	e.i64(`,"MeasBandwidthRBs":`, int64(f.MeasBandwidthRBs))
	e.raw("}")
}

func (e *cpEncoder) meas(m *config.MeasConfig) {
	e.raw(`{"Objects":`)
	if m.Objects == nil {
		e.raw("null")
	} else {
		e.ints = sortedKeys(e.ints, m.Objects)
		e.buf = append(e.buf, '{')
		for i, id := range e.ints {
			e.key(i, id)
			obj := m.Objects[id]
			e.measObject(&obj)
		}
		e.raw("}")
	}
	e.raw(`,"Reports":`)
	if m.Reports == nil {
		e.raw("null")
	} else {
		e.ints = sortedKeys(e.ints, m.Reports)
		e.buf = append(e.buf, '{')
		for i, id := range e.ints {
			e.key(i, id)
			rep := m.Reports[id]
			e.eventConfig(&rep)
		}
		e.raw("}")
	}
	e.raw(`,"Links":`)
	list(e, m.Links, func(l *config.MeasLink) {
		e.i64(`{"ObjectID":`, int64(l.ObjectID))
		e.i64(`,"ReportID":`, int64(l.ReportID))
		e.raw("}")
	})
	e.i64(`,"FilterK":`, int64(m.FilterK))
	e.f64(`,"SMeasure":`, m.SMeasure.V())
	e.raw("}")
}

// key writes an integer map key as a quoted decimal string, after a
// comma for every entry but the first.
func (e *cpEncoder) key(i, k int) {
	if i > 0 {
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, '"')
	e.i64("", int64(k))
	e.raw(`":`)
}

func (e *cpEncoder) measObject(o *config.MeasObject) {
	e.u64(`{"EARFCN":`, uint64(o.EARFCN))
	e.u64(`,"RAT":`, uint64(o.RAT))
	e.f64(`,"OffsetFreq":`, o.OffsetFreq.V())
	e.raw(`,"CellOffsets":`)
	if o.CellOffsets == nil {
		e.raw("null")
	} else {
		e.pcis = sortedKeys(e.pcis, o.CellOffsets)
		e.buf = append(e.buf, '{')
		for i, pci := range e.pcis {
			e.key(i, int(pci))
			e.f64("", o.CellOffsets[pci].V())
		}
		e.raw("}")
	}
	e.raw(`,"Blacklist":`)
	list(e, o.Blacklist, func(pci *uint16) { e.u64("", uint64(*pci)) })
	e.raw("}")
}

func (e *cpEncoder) eventConfig(ev *config.EventConfig) {
	e.u64(`{"Type":`, uint64(ev.Type))
	e.u64(`,"Quantity":`, uint64(ev.Quantity))
	e.f64(`,"Threshold1":`, ev.Threshold1.V())
	e.f64(`,"Threshold2":`, ev.Threshold2.V())
	e.f64(`,"Offset":`, ev.Offset.V())
	e.f64(`,"Hysteresis":`, ev.Hysteresis.V())
	e.i64(`,"TimeToTriggerMs":`, ev.TimeToTriggerMs.V())
	e.i64(`,"ReportIntervalMs":`, ev.ReportIntervalMs.V())
	e.i64(`,"ReportAmount":`, int64(ev.ReportAmount))
	e.i64(`,"MaxReportCells":`, int64(ev.MaxReportCells))
	e.raw("}")
}

func (e *cpEncoder) carrier(c *CarrierAggregate) {
	e.str(`{"carrier":`, c.Carrier)
	e.i64(`,"streams":`, int64(c.Streams))
	e.i64(`,"snapshots":`, int64(c.Snapshots))
	e.i64(`,"events":`, int64(c.Events))
	e.i64(`,"cells":`, int64(c.Cells))
	e.i64(`,"paramSamples":`, int64(c.ParamSamples))
	e.raw(`,"catalog":`)
	list(e, c.Catalog, e.cellEntry)
	e.raw("}")
}

func (e *cpEncoder) cellEntry(c *CellEntry) {
	e.raw(`{"identity":`)
	e.identity(&c.Identity)
	e.i64(`,"rounds":`, int64(c.Rounds))
	e.u64(`,"lastTimeMs":`, c.LastTimeMs)
	e.raw(`,"params":`)
	if c.Params == nil {
		e.raw("null")
	} else {
		keys := e.strs[:0]
		for k := range c.Params {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		e.strs = keys
		e.buf = append(e.buf, '{')
		for i, k := range keys {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.str("", k)
			e.buf = append(e.buf, ':')
			list(e, c.Params[k], func(v *float64) { e.f64("", *v) })
		}
		e.buf = append(e.buf, '}')
	}
	e.raw("}")
	e.flush()
}
