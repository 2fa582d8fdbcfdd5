package experiment

import (
	"bytes"
	"context"
	"testing"

	"mmlab/internal/dataset"
	"mmlab/internal/netsim"
)

// TestBuildD1InterleavedProgress runs a D1 campaign on a small arena,
// where campaigns need several drives each, on a pool wide enough to
// finish later campaigns before earlier ones. The dataset must equal the
// campaign-by-campaign loop's, and Progress must keep its contract: a
// non-decreasing running count over total that crosses each cumulative
// campaign quota in campaign order and ends at (len(Records), total).
// Every count it reports is one the campaign-by-campaign loop reports:
// the records of the finished campaigns plus a prefix of the first
// unfinished one's runs.
func TestBuildD1InterleavedProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("drive campaign")
	}
	opts := D1Options{Scale: 0.01, Seed: 3, Cities: []string{"C3"}, Workers: 4,
		World: netsim.WorldTuning{RegionKm: 1.5}}
	type call struct{ done, total int }
	var calls []call
	opts.Progress = func(done, total int) { calls = append(calls, call{done, total}) }
	d1, err := BuildD1(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.fill()
	camps, total, err := d1Campaigns(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The reference loop also records every count it would report.
	var want []dataset.D1Record
	var bounds []int
	serial := map[int]bool{}
	multi := false
	for _, c := range camps {
		var recs []dataset.D1Record
		run := 0
		for ; len(recs) < c.quota && run < maxCampaignRuns; run++ {
			recs = append(recs, driveRun(c.gen, c.acr, opts.Cities, run, c.active, c.seed, opts.Faults, opts.World)...)
			serial[len(want)+min(len(recs), c.quota)] = true
		}
		multi = multi || run > 1
		want = append(want, recs[:min(len(recs), c.quota)]...)
		bounds = append(bounds, len(want))
	}
	if !multi {
		t.Fatal("every campaign filled from its first drive; the interleaving is untested")
	}
	var got, ref bytes.Buffer
	if err := dataset.WriteD1(&got, d1.Records); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteD1(&ref, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), ref.Bytes()) {
		t.Fatalf("interleaved D1 (%d records) differs from the campaign-by-campaign loop (%d records)", len(d1.Records), len(want))
	}

	if len(calls) == 0 {
		t.Fatal("Progress never called")
	}
	if last := calls[len(calls)-1]; last != (call{len(d1.Records), total}) {
		t.Errorf("last Progress %v, want {%d %d}", last, len(d1.Records), total)
	}
	crossed := 0
	for i, c := range calls {
		if c.total != total {
			t.Fatalf("Progress call %d: total %d, want %d", i, c.total, total)
		}
		if i > 0 && c.done < calls[i-1].done {
			t.Fatalf("Progress call %d: done %d after %d", i, c.done, calls[i-1].done)
		}
		if !serial[c.done] {
			t.Fatalf("Progress call %d: done %d is not a campaign-prefix count", i, c.done)
		}
		for crossed < len(bounds) && c.done >= bounds[crossed] {
			crossed++
		}
	}
	if crossed != len(bounds) {
		t.Errorf("Progress crossed %d of %d campaign quotas", crossed, len(bounds))
	}
}
