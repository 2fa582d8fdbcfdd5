package pipeline_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mmlab/internal/pipeline"
	"mmlab/internal/sib"
)

// FuzzFrame throws arbitrary bytes at the daemon's connection-facing
// decode path — hello, framing, resynchronizing scan — which must never
// panic and never allocate past its bounds, no matter how hostile the
// peer. This is the same code a network connection reaches before any
// supervision.
func FuzzFrame(f *testing.F) {
	var good bytes.Buffer
	if err := pipeline.WriteHello(&good, pipeline.Hello{Carrier: "A", Stream: "s0"}); err != nil {
		f.Fatal(err)
	}
	if err := pipeline.WriteFrame(&good, []byte("not a diag record")); err != nil {
		f.Fatal(err)
	}
	if err := pipeline.WriteEnd(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:len(good.Bytes())/2])
	f.Add([]byte{})
	f.Add([]byte("garbage that is not a hello"))
	f.Add([]byte{0x4D, 0x4D, 0x4C, 0x42, 1, 0xFF, 0xFF, 0xFF}) // magic + huge label length

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		if _, err := pipeline.ReadHello(br); err != nil {
			return
		}
		fr := pipeline.NewFrameReader(br)
		sc := sib.NewStreamScanner(fr, sib.ScanOptions{Copy: true})
		records := 0
		for {
			_, ok, err := sc.Next()
			if !ok {
				if err == nil && !fr.End() {
					t.Error("clean EOF without an end frame")
				}
				break
			}
			records++
		}
		if st := sc.Stats(); st.Records != records {
			t.Errorf("stats claim %d records, scanned %d", st.Records, records)
		}
	})
}

// FuzzRestore writes arbitrary bytes as checkpoint.json and brings a
// daemon up over them: Restore must never panic, on error it must
// restore nothing (never half a checkpoint), and on success it must
// report exactly the streams it registered. The duplicated-entry seed
// takes the error path. Shutdown then drains and rewrites whatever was
// restored, which must not panic either.
func FuzzRestore(f *testing.F) {
	periodic := periodicCheckpoint(f)
	f.Add(periodic)
	var cp pipeline.Checkpoint
	if err := json.Unmarshal(periodic, &cp); err != nil {
		f.Fatal(err)
	}
	dup := cp
	dup.Resume = append(append([]pipeline.StreamResume{}, cp.Resume...), cp.Resume...)
	f.Add(encodeSeed(f, &dup))
	complete := cp
	complete.Resume = append([]pipeline.StreamResume{}, cp.Resume...)
	complete.Resume[0].Complete = true // parser state kept beside the flag
	f.Add(encodeSeed(f, &complete))
	f.Add([]byte(`{"resume":[{"carrier":"A","stream":"s0","seq":18446744073709551615}]}`))
	f.Add([]byte(`{"streams":null,"carriers":null}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d := pipeline.NewDaemon(pipeline.Config{CheckpointDir: dir, ExtractWorkers: 1})
		n, err := d.Restore()
		streams := len(d.Status().Streams)
		if err != nil && streams != 0 {
			t.Errorf("Restore failed (%v) but left %d streams behind", err, streams)
		}
		if err == nil && streams != n {
			t.Errorf("Restore reported %d streams, status shows %d", n, streams)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := d.Shutdown(ctx); err != nil {
			t.Fatalf("drain after restore: %v", err)
		}
	})
}

// FuzzCheckpointEncode decodes arbitrary bytes as a checkpoint. Whatever
// decodes must encode through Checkpoint.Encode to exactly the bytes
// encoding/json writes for it, or fail where encoding/json fails.
func FuzzCheckpointEncode(f *testing.F) {
	f.Add(periodicCheckpoint(f))
	f.Add([]byte(`{"streams":[{"carrier":"<A&>","stream":"s\u2028","snapshots":[{"TimeMs":7,"Config":{"TxPowerDBm":-0,` +
		`"Meas":{"Objects":{"10":{"CellOffsets":{"2":5e-7,"10":1e21}},"9":{}},"Reports":{"2":{},"-1":{}}}}}]}],` +
		`"carriers":[{"catalog":[{"params":{"b":[2.5,-1e-7],"a":null,"\u00e9":[]}}]}]}`))
	f.Add([]byte(`{"streams":null,"carriers":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var cp pipeline.Checkpoint
		if json.Unmarshal(data, &cp) != nil {
			return
		}
		var want, got bytes.Buffer
		werr := json.NewEncoder(&want).Encode(&cp)
		gerr := cp.Encode(&got)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("encoding/json error %v, Encode error %v", werr, gerr)
		}
		if werr == nil {
			if d := firstDiff(got.Bytes(), want.Bytes()); d != "" {
				t.Fatal(d)
			}
		}
	})
}

// periodicCheckpoint returns a real mid-stream periodic checkpoint: the
// first records of a capture delivered over a connection that closes
// without an end frame, so the resume section carries a pending parser
// state. It is kept to a few records because the fuzzer's minimizer
// works byte by byte.
func periodicCheckpoint(tb testing.TB) []byte {
	const k = 20
	prefix := recordPrefix(tb, capture(tb, "A", 37), k)
	dir := tb.TempDir()
	d, addr := startDaemon(tb, pipeline.Config{CheckpointDir: dir, CheckpointEvery: time.Hour})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	if err := pipeline.WriteHello(conn, pipeline.Hello{Carrier: "A", Stream: "s0"}); err != nil {
		tb.Fatal(err)
	}
	// Read the resume ack first: closing with it unread would reset
	// the connection and could discard the frame on the daemon side.
	if _, err := pipeline.ReadAck(bufio.NewReader(conn)); err != nil {
		tb.Fatal(err)
	}
	if err := pipeline.WriteFrame(conn, prefix); err != nil {
		tb.Fatal(err)
	}
	conn.Close()
	waitFor(tb, d, func(s pipeline.Status) bool {
		return len(s.Streams) == 1 && s.Streams[0].IntakeSeq == k && s.Streams[0].Snapshots > 0
	})
	if err := d.CheckpointNow(); err != nil {
		tb.Fatal(err)
	}
	out, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		tb.Fatal(err)
	}
	drain(tb, d)
	return out
}

func encodeSeed(tb testing.TB, cp *pipeline.Checkpoint) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
