package mmlab

import (
	"context"
	"os"
	"testing"

	"mmlab/internal/analysis"
	"mmlab/internal/crawler"
)

// TestPaperScaleD2 crawls the paper-size fleet (scale 1.0, genfleet's
// default seed 42) and checks the D2 rows EXPERIMENTS.md quotes only at
// that scale. The counts are this crawl's own, so they are exact; the
// shares are shape checks, each with a band that holds the paper's
// value.
//
// The crawl peaks near 650 MB, too much to run beside the other package
// tests that go test ./... runs in parallel, so it runs only when
// MMLAB_PAPER_SCALE=1:
//
//	MMLAB_PAPER_SCALE=1 go test -run '^TestPaperScaleD2$' .
func TestPaperScaleD2(t *testing.T) {
	if os.Getenv("MMLAB_PAPER_SCALE") != "1" {
		t.Skip("paper-scale crawl; set MMLAB_PAPER_SCALE=1 to run it")
	}
	d2, err := crawler.BuildGlobalD2(context.Background(), 1.0, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 12: the footprint (paper: 32,033 cells, 7,996,149 samples;
	// our catalog observes 46 of 66 LTE parameters, see EXPERIMENTS.md).
	if got := d2.UniqueCells(); got != 31597 {
		t.Errorf("Fig. 12: %d unique cells, want 31,597", got)
	}
	if got := d2.TotalSamples(); got != 3807383 {
		t.Errorf("Fig. 12: %d parameter samples, want 3,807,383", got)
	}
	bands := []struct {
		name            string
		got, lo, hi     float64
		measured, paper string
	}{
		// Fig. 13: share of cells with more than one sample.
		{"Fig. 13 multi-sample cells", analysis.Fig13(d2, 0).MultiShare, 0.468, 0.488, "47.8 %", "48.1 %"},
		// Fig. 18: AT&T cells whose serving priority deviates from their
		// channel's dominant value (the conflict-prone configurations).
		{"Fig. 18 AT&T multi-value share", analysis.Fig18(d2, "A").MultiValueCellShare, 0.057, 0.067, "6.2 %", "6.3 %"},
	}
	for _, b := range bands {
		if b.got < b.lo || b.got > b.hi {
			t.Errorf("%s = %.2f %%, want [%.1f, %.1f] %% (measured %s, paper %s)",
				b.name, 100*b.got, 100*b.lo, 100*b.hi, b.measured, b.paper)
		}
	}
}
