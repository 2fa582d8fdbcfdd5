package crawler

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"

	"mmlab/internal/carrier"
	"mmlab/internal/config"
	"mmlab/internal/dataset"
	"mmlab/internal/rng"
	"mmlab/internal/sib"
	"mmlab/internal/sim"
)

// monthMs is one collection-period month in milliseconds.
const monthMs = 30 * 24 * 3600 * 1000

// collectionMonths spans the paper's D2 window (Oct 2016 – May 2018).
const collectionMonths = 19

// roundsDistribution approximates Fig. 13a: "almost half of the cells
// (48.1%) have multiple samples", with a tail out to 20+ revisits.
var roundsDistribution = []struct {
	rounds int
	weight float64
}{
	{1, 0.519}, {2, 0.17}, {3, 0.10}, {4, 0.07}, {5, 0.05},
	{6, 0.03}, {8, 0.02}, {10, 0.015}, {12, 0.01}, {15, 0.008},
	{20, 0.005}, {22, 0.003},
}

// visitPlan draws the observation epochs (months) for one cell.
func visitPlan(rng *rand.Rand) []int {
	x := rng.Float64()
	acc := 0.0
	n := 1
	for _, rd := range roundsDistribution {
		acc += rd.weight
		if x < acc {
			n = rd.rounds
			break
		}
	}
	months := rng.Perm(collectionMonths)
	if n > len(months) {
		n = len(months)
	}
	sel := months[:n]
	// Sort ascending (insertion sort; n ≤ 19).
	for i := 1; i < len(sel); i++ {
		for j := i; j > 0 && sel[j] < sel[j-1]; j-- {
			sel[j], sel[j-1] = sel[j-1], sel[j]
		}
	}
	return sel
}

// siteCrawl is one site's rendered diag bytes and visit count.
type siteCrawl struct {
	raw    []byte
	visits int
}

// crawlSite renders every planned visit of one site into its own diag
// byte segment. The per-site RNG is seeded by the site's cell identity,
// so a site's segment is independent of crawl order — the property that
// lets sites crawl in parallel and concatenate deterministically (the
// diag framing is per-record, so concatenated segments equal one serial
// stream byte for byte).
func crawlSite(f *carrier.Fleet, site carrier.CellSite, seed int64) (siteCrawl, error) {
	var buf bytes.Buffer
	dw := sib.NewDiagWriter(&buf)
	rng := rng.New(seed ^ int64(site.Identity.CellID)*0x1000193)
	visits := 0
	for _, month := range visitPlan(rng) {
		cfg := f.Gen.Config(site, month)
		ts := uint64(month)*monthMs + uint64(rng.Intn(monthMs))
		for _, raw := range sib.BroadcastSet(cfg) {
			if err := dw.Write(sib.DiagRecord{TimestampMs: ts, Dir: sib.Downlink, Raw: raw}); err != nil {
				return siteCrawl{}, fmt.Errorf("crawler: writing visit: %w", err)
			}
		}
		if site.Identity.RAT == config.RATLTE {
			if err := dw.WriteMsg(ts+1, sib.Downlink, &sib.RRCReconfig{Meas: cfg.Meas}); err != nil {
				return siteCrawl{}, fmt.Errorf("crawler: writing reconfig: %w", err)
			}
		}
		visits++
	}
	if err := dw.Flush(); err != nil {
		return siteCrawl{}, err
	}
	return siteCrawl{raw: buf.Bytes(), visits: visits}, nil
}

// CrawlFleet simulates MMLab Type-I collection over one carrier's fleet:
// each cell is visited at its planned epochs (MMLab's proactive cell
// switching "automates the switching of the serving cell" so multiple
// cells are collected per location, §3.1), and every visit writes the
// cell's broadcast — plus the RRC reconfiguration for LTE cells, obtained
// by briefly connecting — into the diag stream.
//
// Sites crawl in parallel on the sim runtime (workers <= 0 means
// runtime.NumCPU()); their segments are written to w strictly in site
// order, so the stream is byte-identical for any worker count.
//
// It returns the number of visits written.
func CrawlFleet(ctx context.Context, f *carrier.Fleet, w io.Writer, seed int64, workers int) (int, error) {
	visits := 0
	err := sim.Collect(ctx, sim.Options{Workers: workers},
		func(i int) (func(context.Context) (siteCrawl, error), bool) {
			if i >= len(f.Sites) {
				return nil, false
			}
			site := f.Sites[i]
			return func(context.Context) (siteCrawl, error) {
				return crawlSite(f, site, seed)
			}, true
		},
		func(_ int, sc siteCrawl) error {
			if _, err := w.Write(sc.raw); err != nil {
				return fmt.Errorf("crawler: writing visit: %w", err)
			}
			visits += sc.visits
			return nil
		})
	return visits, err
}

// BuildD2 runs the full device-side pipeline for one fleet: crawl to
// bytes, parse the bytes back, extract parameters through the standard
// catalogs, and emit dataset rows. The analysis layer never touches the
// generator — only what survived the wire.
func BuildD2(ctx context.Context, f *carrier.Fleet, seed int64, workers int) ([]dataset.D2Snapshot, error) {
	var buf bytes.Buffer
	if _, err := CrawlFleet(ctx, f, &buf, seed, workers); err != nil {
		return nil, err
	}
	snaps, _, err := ParseDiag(&buf)
	if err != nil {
		return nil, err
	}
	// Attribute snapshots to sites for the metadata the wire does not
	// carry (position, city) and number the rounds per cell.
	siteByID := make(map[uint32]carrier.CellSite, len(f.Sites))
	for _, s := range f.Sites {
		siteByID[s.Identity.CellID] = s
	}
	rounds := map[uint32]int{}
	out := make([]dataset.D2Snapshot, 0, len(snaps))
	for i := range snaps {
		cs := &snaps[i]
		site, ok := siteByID[cs.Identity.CellID]
		if !ok {
			continue
		}
		rounds[cs.Identity.CellID]++
		var freqs []dataset.FreqObs
		for _, fr := range cs.Config.Freqs {
			freqs = append(freqs, dataset.FreqObs{
				EARFCN: fr.EARFCN, RAT: fr.RAT.String(), Priority: fr.Priority,
			})
		}
		out = append(out, dataset.D2Snapshot{
			Carrier: f.Gen.Carrier.Acronym,
			City:    site.City,
			CellID:  cs.Identity.CellID,
			PCI:     cs.Identity.PCI,
			EARFCN:  cs.Identity.EARFCN,
			RAT:     cs.Identity.RAT.String(),
			TimeMs:  cs.TimeMs,
			Round:   rounds[cs.Identity.CellID],
			PosX:    site.Pos.X,
			PosY:    site.Pos.Y,
			Params:  dataset.SnapshotParams(&cs.Config),
			Freqs:   freqs,
		})
	}
	return out, nil
}

// BuildD2Carriers crawls the given carriers at the given scale and
// returns the combined dataset in carrier-list order. Each carrier's
// crawl seed is derived from its acronym (sim.DeriveSeedLabel), not its
// list position, so a single-carrier build is byte-identical to that
// carrier's slice of a global build. With more than one carrier the
// fan-out is per carrier; a single carrier fans out per cell instead.
func BuildD2Carriers(ctx context.Context, acronyms []string, scale float64, seed int64, workers int) (*dataset.D2, error) {
	siteWorkers := 1
	if len(acronyms) == 1 {
		siteWorkers = workers
	}
	perCarrier, err := sim.Run(ctx, sim.Options{Workers: workers}, len(acronyms),
		func(jc context.Context, i int) ([]dataset.D2Snapshot, error) {
			acr := acronyms[i]
			f, err := carrier.BuildFleet(acr, scale)
			if err != nil {
				return nil, err
			}
			snaps, err := BuildD2(jc, f, sim.DeriveSeedLabel(seed, acr), siteWorkers)
			if err != nil {
				return nil, fmt.Errorf("crawler: carrier %s: %w", acr, err)
			}
			return snaps, nil
		})
	if err != nil {
		return nil, err
	}
	d := &dataset.D2{}
	for _, snaps := range perCarrier {
		d.Snapshots = append(d.Snapshots, snaps...)
	}
	return d, nil
}

// BuildGlobalD2 crawls every carrier in the registry at the given scale
// and returns the combined dataset — the paper's 30-carrier, 32k-cell D2
// at scale 1.0.
func BuildGlobalD2(ctx context.Context, scale float64, seed int64, workers int) (*dataset.D2, error) {
	carriers := carrier.All()
	acrs := make([]string, 0, len(carriers))
	for _, c := range carriers {
		acrs = append(acrs, c.Acronym)
	}
	return BuildD2Carriers(ctx, acrs, scale, seed, workers)
}
