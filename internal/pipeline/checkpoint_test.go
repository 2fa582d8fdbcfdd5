package pipeline_test

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mmlab/internal/pipeline"
)

// TestWriteFileErrorKeepsPrevious: a checkpoint that fails to encode
// must leave the previous checkpoint.json untouched and no temp file
// behind, so a restart still finds the last good state.
func TestWriteFileErrorKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	good := &pipeline.Checkpoint{Carriers: []pipeline.CarrierAggregate{{Carrier: "A"}}}
	if err := good.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "checkpoint.json")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	bad := &pipeline.Checkpoint{Carriers: []pipeline.CarrierAggregate{{
		Carrier: "A",
		Catalog: []pipeline.CellEntry{{Params: map[string][]float64{"q": {math.NaN()}}}},
	}}}
	if err := bad.WriteFile(dir); err == nil {
		t.Fatal("WriteFile of a NaN parameter succeeded; want an encode error")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("failed WriteFile changed checkpoint.json")
	}
	if _, err := os.Stat(filepath.Join(dir, ".checkpoint.json.tmp")); !os.IsNotExist(err) {
		t.Fatalf("failed WriteFile left its temp file behind (stat: %v)", err)
	}
}

// BenchmarkCheckpointEncode times encoding the batch reference of one
// carrier capture, the work every drain and periodic checkpoint does.
func BenchmarkCheckpointEncode(b *testing.B) {
	cp, err := pipeline.Reference([]pipeline.FeedInput{{Carrier: "A", Stream: "s0", Data: capture(b, "A", 3)}})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cp.Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
