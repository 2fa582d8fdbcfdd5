package sib

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"mmlab/internal/rng"
)

// chunkReader yields the stream in pseudo-random chunk sizes so every
// record boundary eventually lands mid-chunk.
type chunkReader struct {
	data []byte
	rng  *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1 + c.rng.Intn(97)
	if n > len(c.data) {
		n = len(c.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

func collectStream(t *testing.T, s *StreamScanner) []DiagRecord {
	t.Helper()
	var out []DiagRecord
	for {
		rec, ok, err := s.Next()
		if err != nil {
			t.Fatalf("stream scan error: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

// damage hand-rolls the corruption classes the capture plane produces:
// junk runs, bit flips inside sealed envelopes, truncated records.
func damage(t *testing.T, rng *rand.Rand, n int) []byte {
	t.Helper()
	var stream []byte
	for i := 0; i < n; i++ {
		rec := scanStream(t, 1)
		switch rng.Intn(5) {
		case 0: // junk run before the record
			junk := make([]byte, 1+rng.Intn(40))
			rng.Read(junk)
			stream = append(stream, junk...)
			stream = append(stream, rec...)
		case 1: // flipped bit inside the envelope
			cp := append([]byte(nil), rec...)
			cp[13+rng.Intn(len(cp)-13)] ^= 1 << uint(rng.Intn(8))
			stream = append(stream, cp...)
		case 2: // truncated record
			stream = append(stream, rec[:1+rng.Intn(len(rec)-1)]...)
		default:
			stream = append(stream, rec...)
		}
	}
	return stream
}

// TestStreamScannerMatchesDiagScanner is the equivalence property: over
// damaged streams delivered in arbitrary chunks, the incremental scanner
// yields exactly the records and stats of a batch scan.
func TestStreamScannerMatchesDiagScanner(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rng.New(seed)
		stream := damage(t, rng, 30)

		batch := NewDiagScanner(stream)
		want := collect(batch)

		ss := NewStreamScanner(&chunkReader{data: stream, rng: rng}, ScanOptions{Copy: true})
		got := collectStream(t, ss)

		if len(got) != len(want) {
			t.Fatalf("seed %d: records = %d, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].TimestampMs != want[i].TimestampMs || got[i].Dir != want[i].Dir ||
				!bytes.Equal(got[i].Raw, want[i].Raw) {
				t.Fatalf("seed %d: record %d differs", seed, i)
			}
		}
		if ss.Stats() != batch.Stats() {
			t.Fatalf("seed %d: stats %+v, want %+v", seed, ss.Stats(), batch.Stats())
		}
	}
}

// TestStreamScannerReadError checks that a mid-stream read failure
// surfaces after every decodable record was yielded.
func TestStreamScannerReadError(t *testing.T) {
	data := scanStream(t, 4)
	r := io.MultiReader(bytes.NewReader(data), iotestErr{})
	ss := NewStreamScanner(r, ScanOptions{})
	n := 0
	for {
		_, ok, err := ss.Next()
		if !ok {
			if err == nil {
				t.Fatal("read error swallowed")
			}
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("records before error = %d, want 4", n)
	}
}

type iotestErr struct{}

func (iotestErr) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// TestDiagScannerCopyDetachesRecords is the aliasing regression test: a
// caller that reuses the scanned buffer corrupts retained records unless
// Copy is on.
func TestDiagScannerCopyDetachesRecords(t *testing.T) {
	data := scanStream(t, 5)

	// Without Copy, records alias the buffer: zeroing it afterwards
	// destroys them (this is the documented hazard).
	buf := append([]byte(nil), data...)
	aliased := collect(NewDiagScanner(buf))
	for i := range buf {
		buf[i] = 0
	}
	if _, err := aliased[0].Decode(); err == nil {
		t.Fatal("aliased record survived buffer reuse; hazard test is vacuous")
	}

	// With Copy, the same reuse leaves every record intact.
	buf = append(buf[:0], data...)
	copied := collect(NewDiagScannerOpts(buf, ScanOptions{Copy: true}))
	for i := range buf {
		buf[i] = 0
	}
	if len(copied) != 5 {
		t.Fatalf("records = %d, want 5", len(copied))
	}
	for i, r := range copied {
		if _, err := r.Decode(); err != nil {
			t.Fatalf("copied record %d corrupted by buffer reuse: %v", i, err)
		}
	}
}

// TestStreamScannerCopyDetachesRecords: the stream scanner's internal
// buffer is reused across reads, so without Copy a record is only valid
// until the next Next call; with Copy retained records stay intact.
func TestStreamScannerCopyDetachesRecords(t *testing.T) {
	data := scanStream(t, 64)
	rng := rng.New(1)
	ss := NewStreamScanner(&chunkReader{data: data, rng: rng}, ScanOptions{Copy: true})
	recs := collectStream(t, ss)
	if len(recs) != 64 {
		t.Fatalf("records = %d, want 64", len(recs))
	}
	for i, r := range recs {
		if _, err := r.Decode(); err != nil {
			t.Fatalf("retained record %d invalid after scan completed: %v", i, err)
		}
	}
}
