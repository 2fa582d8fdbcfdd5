// Package predict implements the paper's §6 device-side opportunity:
// "given the observable configurations, it is feasible to predict
// handoffs at runtime at the mobile device ... such predictions can be
// highly accurate, given the common handoff policies being used."
//
// The predictor consumes exactly what an on-device agent sees — the
// crawled measurement configuration plus the device's own measurement
// reports, both taken from the diag stream — and forecasts whether the
// network will order a handoff and to which cell. Applications can use
// the forecast to prepare TCP and application state before the outage.
package predict

import (
	"io"

	"mmlab/internal/config"
	"mmlab/internal/core"
	"mmlab/internal/radio"
	"mmlab/internal/sib"
	"mmlab/internal/units"
)

// Prediction is the forecast attached to one measurement report.
type Prediction struct {
	AtMs      uint64
	Handoff   bool
	TargetPCI uint16
}

// Predictor replays a device's signaling and forecasts handoffs. It
// assumes the network's decision margins (core.PeriodicMargin,
// A2Emergency and SanityMargin); a real deployment would fit them from
// observed handoffs.
type Predictor struct {
	meas config.MeasConfig
}

// New builds a predictor.
func New() *Predictor { return &Predictor{} }

// Observe feeds one decoded signaling message. It returns a prediction
// (and true) when the message is a measurement report; configuration
// messages update internal state.
func (p *Predictor) Observe(tsMs uint64, m sib.Message) (Prediction, bool) {
	switch msg := m.(type) {
	case *sib.RRCReconfig:
		p.meas = msg.Meas
	case *sib.MeasurementReport:
		return p.predict(tsMs, msg), true
	}
	return Prediction{}, false
}

// predict applies the network policy to the device's own report.
func (p *Predictor) predict(ts uint64, rep *sib.MeasurementReport) Prediction {
	out := Prediction{AtMs: ts}
	if len(rep.Neighbors) == 0 {
		return out
	}
	best := rep.Neighbors[0]
	servRSRP := radio.DequantizeRSRP(rep.Serving.RSRPIdx)
	bestRSRP := radio.DequantizeRSRP(best.RSRPIdx)
	switch rep.EventType {
	case config.EventA3:
		out.Handoff = true
	case config.EventA4, config.EventA5, config.EventB1, config.EventB2:
		// Quantity-aware sanity margin, like the network applies.
		q := quantityOf(p.meas, rep.EventType)
		sv, bv := servRSRP, bestRSRP
		if q == config.RSRQ {
			sv = units.LevelFromDb(radio.DequantizeRSRQ(rep.Serving.RSRQIdx))
			bv = units.LevelFromDb(radio.DequantizeRSRQ(best.RSRQIdx))
		}
		out.Handoff = bv > sv.SubDb(core.SanityMargin)
	case config.EventPeriodic:
		out.Handoff = bestRSRP > servRSRP.Add(core.PeriodicMargin)
	case config.EventA2:
		out.Handoff = servRSRP < core.A2Emergency && bestRSRP > servRSRP+3
	}
	if out.Handoff {
		out.TargetPCI = best.PCI
	}
	return out
}

// quantityOf finds the trigger quantity configured for an event type.
func quantityOf(meas config.MeasConfig, t config.EventType) config.Quantity {
	for _, pair := range meas.LinkedPairs() {
		if pair.Report.Type == t {
			return pair.Report.Quantity
		}
	}
	return config.RSRP
}

// Score tallies predictions against the handover commands that actually
// followed in the stream.
type Score struct {
	Reports       int
	Predicted     int
	TruePositive  int
	FalsePositive int
	FalseNegative int
	TargetCorrect int
}

// Precision returns TP / (TP + FP).
func (s Score) Precision() float64 { return safeDiv(s.TruePositive, s.TruePositive+s.FalsePositive) }

// Recall returns TP / (TP + FN).
func (s Score) Recall() float64 { return safeDiv(s.TruePositive, s.TruePositive+s.FalseNegative) }

// TargetAccuracy returns the fraction of true positives whose predicted
// target cell matched the handover command.
func (s Score) TargetAccuracy() float64 { return safeDiv(s.TargetCorrect, s.TruePositive) }

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// matchWindowMs is how soon after a predicted report the command must
// arrive to count as the same handoff (covers the 80–230 ms decision
// delay plus one measurement round).
const matchWindowMs = 500

// Evaluate replays a whole diag stream, predicting on every report and
// scoring against the handover commands.
func Evaluate(r io.Reader) (Score, error) {
	var (
		p     = New()
		s     Score
		last  *Prediction
		dr    = sib.NewDiagReader(r)
		preds []Prediction
	)
	err := dr.ForEach(func(rec sib.DiagRecord) error {
		m, err := rec.Decode()
		if err != nil {
			return err
		}
		if cmd, ok := m.(*sib.HandoverCommand); ok {
			if last != nil && rec.TimestampMs-last.AtMs <= matchWindowMs {
				if last.Handoff {
					s.TruePositive++
					if last.TargetPCI == cmd.TargetPCI {
						s.TargetCorrect++
					}
				} else {
					s.FalseNegative++
				}
				last = nil
			} else {
				s.FalseNegative++
			}
			return nil
		}
		if pr, ok := p.Observe(rec.TimestampMs, m); ok {
			s.Reports++
			preds = append(preds, pr)
			last = &preds[len(preds)-1]
		}
		return nil
	})
	if err != nil {
		return s, err
	}
	for _, pr := range preds {
		if pr.Handoff {
			s.Predicted++
		}
	}
	s.FalsePositive = s.Predicted - s.TruePositive
	if s.FalsePositive < 0 {
		s.FalsePositive = 0
	}
	return s, nil
}
