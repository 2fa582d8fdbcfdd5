// Package experiment orchestrates the paper's Type-II measurements on the
// simulator: the drive campaigns that build dataset D1 (§4: active-state
// 4G→4G handoffs with speedtest / constant-rate iPerf / ping, plus
// idle-state drives), the configuration sweeps behind Figs. 7–8, and the
// ablation runs of DESIGN.md §4. Every campaign runs on the internal/sim
// runtime, so output is byte-identical for any worker count.
package experiment

import (
	"context"
	"fmt"
	"sync/atomic"

	"mmlab/internal/carrier"
	"mmlab/internal/config"
	"mmlab/internal/dataset"
	"mmlab/internal/fault"
	"mmlab/internal/geo"
	"mmlab/internal/netsim"
	"mmlab/internal/sim"
	"mmlab/internal/traffic"
)

// D1Options sizes a D1 campaign.
type D1Options struct {
	// Scale 1.0 reproduces the paper's dataset size (14,510 active +
	// 4,263 idle handoffs); smaller scales shrink proportionally.
	Scale float64
	Seed  int64
	// Cities defaults to the paper's three test cities mapped onto our
	// region codes: Chicago (C1), Indianapolis (C3), Lafayette (C5).
	Cities []string
	// Workers bounds the drive-run worker pool (<= 0: runtime.NumCPU()).
	// The worker count never changes the dataset, only the wall-clock.
	Workers int
	// Progress, if set, is called as records accumulate with the running
	// record count and the campaign's total quota.
	Progress func(done, total int)
	// Faults injects signaling-plane faults (dropped/delayed reports, lost
	// handover commands, radio fades) into every drive. The zero value
	// disables injection and leaves the dataset byte-identical to a
	// fault-free campaign.
	Faults fault.Rates
	// World sizes the drive arena. The zero value keeps the standard
	// arena.
	World netsim.WorldTuning
}

func (o *D1Options) fill() {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if len(o.Cities) == 0 {
		o.Cities = []string{"C1", "C3", "C5"}
	}
}

// Paper dataset sizes (§4).
const (
	PaperActiveHandoffs = 14510
	PaperIdleHandoffs   = 4263
)

// activeShare weights the active campaign per carrier: speedtest and
// constant-rate iPerf ran "primarily in AT&T and T-Mobile only" (§4).
var activeShare = map[string]float64{"A": 0.4, "T": 0.4, "V": 0.12, "S": 0.08}

// idleShare spreads the idle campaign over all four US carriers.
var idleShare = map[string]float64{"A": 0.3, "T": 0.3, "V": 0.2, "S": 0.2}

// driveRegion is the standard drive-test arena.
var driveRegion = geo.NewRect(geo.Pt(0, 0), geo.Pt(7000, 4500))

// appFor rotates the paper's three data services across runs.
func appFor(run int) traffic.App {
	switch run % 4 {
	case 0:
		return traffic.Speedtest{}
	case 1:
		return traffic.NewConstantRate(1e6) // 1 Mbps iPerf
	case 2:
		return traffic.NewConstantRate(5e3) // 5 kbps iPerf
	default:
		return traffic.NewPing()
	}
}

// speedFor alternates local (<50 km/h) and highway (90–120 km/h) runs.
func speedFor(run int) float64 {
	if run%2 == 0 {
		return 45
	}
	return 90 + float64(run%4)*10
}

// convert maps a simulator handoff to a D1 row.
func convert(h netsim.HandoffRecord, carrierAcr, city string) dataset.D1Record {
	rec := dataset.D1Record{
		Carrier:       carrierAcr,
		City:          city,
		Kind:          string(h.Kind),
		TimeMs:        h.Time,
		ReportTimeMs:  h.ReportTime,
		FromCellID:    h.From.CellID,
		ToCellID:      h.To.CellID,
		FromEARFCN:    h.From.EARFCN,
		ToEARFCN:      h.To.EARFCN,
		FromRAT:       h.From.RAT.String(),
		ToRAT:         h.To.RAT.String(),
		FromPriority:  h.FromPriority,
		ToPriority:    h.ToPriority,
		RSRPOld:       h.RSRPOld.V(),
		RSRPNew:       h.RSRPNew.V(),
		RSRQOld:       h.RSRQOld.V(),
		RSRQNew:       h.RSRQNew.V(),
		MinThptBefore: h.MinThptBefore,
		PingPong:      h.PingPong,
	}
	if h.Kind == netsim.ActiveHandoff {
		rec.Event = h.Event.String()
		rec.Quantity = h.EventConfig.Quantity.String()
		rec.Offset = h.EventConfig.Offset.V()
		rec.Hysteresis = h.EventConfig.Hysteresis.V()
		rec.Threshold1 = h.EventConfig.Threshold1.V()
		rec.Threshold2 = h.EventConfig.Threshold2.V()
		rec.TTTMs = int(h.EventConfig.TimeToTriggerMs.V())
	}
	return rec
}

// driveRun performs one campaign drive and returns its (filtered) D1
// rows. Seeds are attached to the run index, never to execution order,
// so runs may execute in parallel and still merge deterministically.
func driveRun(gen *carrier.Generator, acr string, cities []string, run int, active bool, seed int64, faults fault.Rates, tune netsim.WorldTuning) []dataset.D1Record {
	city := cities[run%len(cities)]
	wopts := netsim.WorldOpts{
		Seed:      seed + int64(run)*101,
		City:      city,
		LTELayers: 3,
	}
	if !active {
		wopts.IncludeNonLTE = true
	}
	w := netsim.BuildWorld(gen, tune.Region(driveRegion), wopts)
	lane := float64((run%5)-2) * 120
	route := netsim.RowRoute(w, speedFor(run), lane)
	opts := netsim.UEOpts{Seed: seed*7 + int64(run), Active: active}
	if active {
		opts.App = appFor(run)
		// The injector seed derives from the run index on its own stream so
		// fault decisions neither disturb nor depend on the world/UE RNGs.
		opts.Injector = fault.New(sim.DeriveSeed(seed, run), faults)
	}
	res := netsim.RunDrive(w, route, route.Duration(), opts)
	var out []dataset.D1Record
	for _, h := range res.Handoffs {
		if active && (h.From.RAT != config.RATLTE || h.To.RAT != config.RATLTE) {
			continue // D1 keeps 4G→4G active handoffs only (§4)
		}
		out = append(out, convert(h, acr, city))
	}
	return out
}

// maxCampaignRuns bounds a quota campaign that never fills.
const maxCampaignRuns = 4000

// d1Campaign is one carrier×state quota campaign of BuildD1.
type d1Campaign struct {
	gen    *carrier.Generator
	acr    string
	quota  int
	active bool
	seed   int64
	recs   []dataset.D1Record
	// done is set only by the consumer, once recs reaches quota or the
	// last run is delivered. A job that finds it set skips its drive.
	done atomic.Bool
}

// d1Campaigns lays out the eight carrier×state campaigns in dataset
// order and returns them with the sum of their quotas.
func d1Campaigns(opts D1Options) ([]*d1Campaign, int, error) {
	var camps []*d1Campaign
	total := 0
	for _, acr := range []string{"A", "T", "V", "S"} {
		gen, err := carrier.NewGenerator(acr)
		if err != nil {
			return nil, 0, fmt.Errorf("experiment: active campaign %s: %w", acr, err)
		}
		quotaA := int(float64(PaperActiveHandoffs) * opts.Scale * activeShare[acr])
		if quotaA < 10 {
			quotaA = 10
		}
		quotaI := int(float64(PaperIdleHandoffs) * opts.Scale * idleShare[acr])
		if quotaI < 10 {
			quotaI = 10
		}
		// Common random numbers: every carrier's active campaign shares
		// one seed, and every idle campaign another. Run r of each
		// carrier drives the same route with the same world and UE
		// seeds: where the carriers' channel layers line up, the same
		// cell IDs sit on the same sites with the same shadow fields and
		// loads. The carriers differ in their channels and configurations.
		camps = append(camps,
			&d1Campaign{gen: gen, acr: acr, quota: quotaA, active: true, seed: opts.Seed + 1},
			&d1Campaign{gen: gen, acr: acr, quota: quotaI, active: false, seed: opts.Seed + 1001})
		total += quotaA + quotaI
	}
	return camps, total, nil
}

// BuildD1 runs the full Type-II campaign and returns the dataset. The
// eight carrier×state campaigns share one sim pool: job j is run j/8 of
// campaign j%8, so every campaign sees its runs in run order and keeps
// exactly the drives a campaign-by-campaign loop would. The dataset is
// identical for every opts.Workers value.
func BuildD1(ctx context.Context, opts D1Options) (*dataset.D1, error) {
	opts.fill()
	camps, total, err := d1Campaigns(opts)
	if err != nil {
		return nil, err
	}

	n := len(camps)
	// Campaigns before first are done; Progress reports their records
	// plus those of camps[first], so the running count crosses each
	// cumulative quota once, in campaign order. Collect fails on the
	// first undelivered job, next, which names the failing campaign.
	first, prefix, next := 0, 0, 0
	err = sim.Collect(ctx, sim.Options{Workers: opts.Workers},
		func(j int) (func(context.Context) ([]dataset.D1Record, error), bool) {
			c, run := camps[j%n], j/n
			if run >= maxCampaignRuns {
				return nil, false
			}
			return func(context.Context) ([]dataset.D1Record, error) {
				if c.done.Load() {
					return nil, nil // moot: consume discards rows of a done campaign
				}
				return driveRun(c.gen, c.acr, opts.Cities, run, c.active, c.seed, opts.Faults, opts.World), nil
			}, true
		},
		func(j int, recs []dataset.D1Record) error {
			next = j + 1
			c := camps[j%n]
			if c.done.Load() {
				return nil
			}
			c.recs = append(c.recs, recs...)
			if len(c.recs) >= c.quota || j/n == maxCampaignRuns-1 {
				c.recs = c.recs[:min(len(c.recs), c.quota)]
				c.done.Store(true)
			}
			for first < n && camps[first].done.Load() {
				prefix += len(camps[first].recs)
				first++
			}
			if opts.Progress != nil {
				cur := prefix
				if first < n {
					cur += len(camps[first].recs)
				}
				opts.Progress(cur, total)
			}
			if first == n {
				return sim.ErrStop
			}
			return nil
		})
	if err != nil {
		c, kind := camps[next%n], "idle"
		if c.active {
			kind = "active"
		}
		return nil, fmt.Errorf("experiment: %s campaign %s: %w", kind, c.acr, err)
	}
	d := &dataset.D1{}
	for _, c := range camps {
		d.Records = append(d.Records, c.recs...)
	}
	return d, nil
}

// worldFor builds a standard single-carrier sweep world (one LTE layer:
// intra-frequency handoffs, the paper's Fig. 7 scenario).
func worldFor(acr string, seed int64) (*netsim.World, error) {
	gen, err := carrier.NewGenerator(acr)
	if err != nil {
		return nil, err
	}
	return netsim.BuildWorld(gen, driveRegion, netsim.WorldOpts{Seed: seed, LTELayers: 1}), nil
}
