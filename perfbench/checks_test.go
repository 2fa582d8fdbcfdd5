package main

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"mmlab/internal/carrier"
	"mmlab/internal/crawler"
	"mmlab/internal/dataset"
	"mmlab/internal/pipeline"
)

// Each check must pass on good output and fail on a seeded defect.

// syntheticD1 fills every campaign of plan exactly, with an AT&T and
// T-Mobile decisive-event mix inside the Fig. 5 band.
func syntheticD1(plan []d1Campaign) *dataset.D1 {
	d := &dataset.D1{}
	for _, c := range plan {
		for i := 0; i < c.quota; i++ {
			r := dataset.D1Record{Carrier: c.carrier, Kind: "idle"}
			if c.active {
				r.Kind, r.Event = "active", "A3"
				switch {
				case i%4 == 0:
					r.Event = "A5"
				case i%4 == 1 && c.carrier == "T":
					r.Event = "P"
				}
			}
			d.Records = append(d.Records, r)
		}
	}
	return d
}

func TestCheckD1(t *testing.T) {
	plan := d1Plan(d1Scale)
	good := syntheticD1(plan)
	if failed, problems := checkD1(good, plan, true); failed != 0 {
		t.Fatalf("good D1 failed: %v", problems)
	}

	// Defect: the T-Mobile idle campaign is one record short.
	short := &dataset.D1{}
	dropped := false
	for _, r := range good.Records {
		if !dropped && r.Carrier == "T" && r.Kind == "idle" {
			dropped = true
			continue
		}
		short.Records = append(short.Records, r)
	}
	if failed, problems := checkD1(short, plan, true); failed != 1 {
		t.Fatalf("short D1: %d failed campaigns (%v), want 1", failed, problems)
	}

	// Defect: AT&T's decisive events are all A5.
	skewed := &dataset.D1{Records: append([]dataset.D1Record(nil), good.Records...)}
	for i := range skewed.Records {
		if r := &skewed.Records[i]; r.Carrier == "A" && r.Kind == "active" {
			r.Event = "A5"
		}
	}
	if failed, _ := checkD1(skewed, plan, true); failed != 1 {
		t.Fatalf("skewed D1: %d failed campaigns, want 1", failed)
	}
	if failed, _ := checkD1(skewed, plan, false); failed != 0 {
		t.Fatal("the event-mix band must not apply when band is off")
	}
}

func smallD2(t *testing.T) (*dataset.D2, map[string]int) {
	t.Helper()
	acrs := []string{"A", "T"}
	d2, err := crawler.BuildD2Carriers(context.Background(), acrs, d2Scale, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string]int{}
	for _, acr := range acrs {
		f, err := carrier.BuildFleet(acr, d2Scale)
		if err != nil {
			t.Fatal(err)
		}
		sites[acr] = len(f.Sites)
	}
	return d2, sites
}

func roundTrip(t *testing.T, d2 *dataset.D2) ([]byte, *dataset.D2) {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteD2(&buf, d2.Snapshots); err != nil {
		t.Fatal(err)
	}
	read, err := dataset.ReadD2(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), read
}

func TestCheckD2(t *testing.T) {
	d2, sites := smallD2(t)
	written, read := roundTrip(t, d2)
	if failed, problems := checkD2(d2, sites, written, read); failed != 0 {
		t.Fatalf("good D2 failed: %v", problems)
	}

	// Defect: the round trip loses T-Mobile's last snapshot.
	lossy := &dataset.D2{}
	last := -1
	for i, s := range read.Snapshots {
		if s.Carrier == "T" {
			last = i
		}
	}
	lossy.Snapshots = append(append(lossy.Snapshots, read.Snapshots[:last]...), read.Snapshots[last+1:]...)
	if failed, problems := checkD2(d2, sites, written, lossy); failed != 1 {
		t.Fatalf("lossy round trip: %d failed carriers (%v), want 1", failed, problems)
	}

	// Defect: the crawl misses every cell of one AT&T site.
	missing := &dataset.D2{}
	skip := d2.Snapshots[0].CellID
	for _, s := range d2.Snapshots {
		if !(s.Carrier == "A" && s.CellID == skip) {
			missing.Snapshots = append(missing.Snapshots, s)
		}
	}
	w2, r2 := roundTrip(t, missing)
	if failed, _ := checkD2(missing, sites, w2, r2); failed != 1 {
		t.Fatalf("missing cell: %d failed carriers, want 1", failed)
	}
}

func TestCheckIngest(t *testing.T) {
	f, err := carrier.BuildFleet("SK", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []pipeline.FeedInput
	var streams []pipeline.StreamStatus
	for k := 0; k < 2; k++ {
		var buf bytes.Buffer
		if _, err := crawler.CrawlFleet(context.Background(), f, &buf, int64(k+1), 1); err != nil {
			t.Fatal(err)
		}
		stream := fmt.Sprintf("s%d", k)
		inputs = append(inputs, pipeline.FeedInput{Carrier: "SK", Stream: stream, Data: buf.Bytes()})
		streams = append(streams, pipeline.StreamStatus{Carrier: "SK", Stream: stream, Complete: true})
	}
	ref, err := pipeline.Reference(inputs)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ref.Encode(&want); err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), want.Bytes()...)
	if failed, problems := checkIngest(good, want.Bytes(), streams, 2); failed != 0 {
		t.Fatalf("good checkpoint failed: %v", problems)
	}

	// Defect: one flipped byte in the drained checkpoint.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x01
	if failed, problems := checkIngest(flipped, want.Bytes(), streams, 2); failed == 0 {
		t.Fatalf("flipped byte passed: %v", problems)
	}

	// Defect: the daemon resynchronized one stream.
	resynced := append([]pipeline.StreamStatus(nil), streams...)
	resynced[1].Resyncs = 1
	if failed, _ := checkIngest(good, want.Bytes(), resynced, 2); failed != 1 {
		t.Fatalf("resynced stream: %d failed, want 1", failed)
	}
}
