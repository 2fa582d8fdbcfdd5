package dataset

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadD1 feeds arbitrary bytes to the D1 reader. It must either
// refuse them or return records whose written form reads back and
// re-writes to the identical bytes. The comparison is on bytes, not
// structs: omitempty fields legitimately read back as their zero value.
func FuzzReadD1(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteD1(&buf, sampleD1()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2]) // truncated mid-record
	f.Add([]byte{})
	f.Add([]byte(`{"carrier":"A","t":1,"pingpong":true,"ttt":320}` + "\n" + `null`))
	f.Add([]byte(`{"rsrpOld":1e400}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data, ReadD1, func(w io.Writer, d *D1) error { return WriteD1(w, d.Records) })
	})
}

// FuzzReadD2 is FuzzReadD1 for configuration snapshots.
func FuzzReadD2(f *testing.F) {
	snaps := []D2Snapshot{
		snap("A", 1, "LTE", 0, map[string][]float64{"a3.offset": {3}, "prio": {2, 5}}),
		snap("T", 9, "UMTS", 2, nil),
	}
	snaps[0].Freqs = []FreqObs{{EARFCN: 5780, RAT: "LTE", Priority: 2}}
	var buf bytes.Buffer
	if err := WriteD2(&buf, snaps); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2]) // truncated mid-record
	f.Add([]byte{})
	f.Add([]byte(`{"cell":3,"params":{"x":null,"x":[1]},"freqs":[]}`))
	f.Add([]byte(`{"pci":70000}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data, ReadD2, func(w io.Writer, d *D2) error { return WriteD2(w, d.Snapshots) })
	})
}

// roundTrip reads data; if the reader accepts it, the dataset's written
// form must read back and re-write to the identical bytes.
func roundTrip[T any](t *testing.T, data []byte, read func(io.Reader) (T, error), write func(io.Writer, T) error) {
	t.Helper()
	d, err := read(bytes.NewReader(data))
	if err != nil {
		return
	}
	var first bytes.Buffer
	if err := write(&first, d); err != nil {
		t.Fatalf("write of a read dataset failed: %v", err)
	}
	back, err := read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("written dataset does not read back: %v\n%s", err, first.Bytes())
	}
	var second bytes.Buffer
	if err := write(&second, back); err != nil {
		t.Fatalf("rewrite failed: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("write→read→write changed the bytes:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
}
