package mmlab

// Determinism-under-parallelism tests: the internal/sim contract is that
// the worker count changes only the wall-clock, never the output. These
// tests pin that contract at the dataset-serialization level — the bytes
// a user would diff. The D1 tests read the campaigns TestD1Goldens builds.

import (
	"bytes"
	"context"
	"testing"

	"mmlab/internal/crawler"
	"mmlab/internal/dataset"
)

// TestD1DeterministicAcrossWorkers: the full D1 campaign serializes
// byte-identically at workers=1 and workers=8.
func TestD1DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	checkD1AcrossWorkers(t, 0)
}

// TestD1FaultDeterministicAcrossWorkers: fault injection draws from its
// own seeded streams, so a faulted campaign keeps the same contract —
// byte-identical output at any worker count.
func TestD1FaultDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	checkD1AcrossWorkers(t, 1)
}

// TestD2DeterministicAcrossWorkers: a multi-carrier crawl serializes
// byte-identically at workers=1 and workers=8.
func TestD2DeterministicAcrossWorkers(t *testing.T) {
	build := func(workers int) []byte {
		d2, err := crawler.BuildD2Carriers(context.Background(), []string{"A", "SK"}, 0.01, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dataset.WriteD2(&buf, d2.Snapshots); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, parallel := build(1), build(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("D2 differs across worker counts: %d vs %d bytes", len(serial), len(parallel))
	}
}
