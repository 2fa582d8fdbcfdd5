package pipeline_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mmlab/internal/pipeline"
	"mmlab/internal/pipeline/feeder"
	"mmlab/internal/sib"
)

// countRecords counts the records of a clean capture.
func countRecords(t *testing.T, data []byte) int {
	t.Helper()
	n := 0
	if err := sib.NewDiagReader(bytes.NewReader(data)).ForEach(func(sib.DiagRecord) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// recordPrefix returns the capture's first k records as raw bytes, using
// the wire layout (13-byte header: tsMs 8, dir 1, msgLen 4 LE).
func recordPrefix(t testing.TB, data []byte, k int) []byte {
	t.Helper()
	off := 0
	for i := 0; i < k; i++ {
		if off+13 > len(data) {
			t.Fatalf("capture has fewer than %d records", k)
		}
		msgLen := int(binary.LittleEndian.Uint32(data[off+9 : off+13]))
		off += 13 + msgLen
	}
	return data[:off]
}

// TestPeriodicCheckpointDurableAck checks the full durable loop on a
// healthy daemon: periodic checkpoints are written with a resume
// section, a WaitDurable feeder is released by the durable ack, and the
// final drain checkpoint is still byte-identical to the batch reference
// (the drain file carries no resume section — nothing about periodic
// checkpointing may perturb the sealed artifact).
func TestPeriodicCheckpointDurableAck(t *testing.T) {
	data := capture(t, "A", 31)
	dir := t.TempDir()
	d, addr := startDaemon(t, pipeline.Config{
		CheckpointDir:   dir,
		CheckpointEvery: 5 * time.Millisecond,
	})

	st, err := feeder.Feed(context.Background(), data, feeder.Options{
		Addr: addr, Carrier: "A", Stream: "s0", Seed: 1,
		WaitDurable: true, DurableTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("durable feed: %v", err)
	}
	if st.Records != countRecords(t, data) {
		t.Fatalf("fed %d records, capture has %d", st.Records, countRecords(t, data))
	}

	// The feeder only returns once a periodic checkpoint covers the
	// whole stream, so the file must exist, be resumable, and show the
	// stream complete at its full record count.
	pcp, err := pipeline.LoadCheckpoint(dir)
	if err != nil || pcp == nil {
		t.Fatalf("periodic checkpoint missing: %v", err)
	}
	if len(pcp.Resume) != 1 || !pcp.Resume[0].Complete || pcp.Resume[0].Seq != uint64(st.Records) {
		t.Fatalf("bad resume section: %+v", pcp.Resume)
	}
	if s := d.Status(); s.Checkpoints == 0 || s.LastCheckpointMs == 0 {
		t.Fatalf("checkpoint counters not surfaced: %s", s.Summary())
	}

	cp := drain(t, d)
	if len(cp.Resume) != 0 {
		t.Fatal("drain checkpoint must not carry a resume section")
	}
	want, err := pipeline.Reference([]pipeline.FeedInput{{Carrier: "A", Stream: "s0", Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCP(t, cp), encodeCP(t, want)) {
		t.Fatal("drain checkpoint differs from batch reference with periodic checkpointing on")
	}
	// And the drained file on disk is the sealed artifact, byte-for-byte.
	onDisk, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, encodeCP(t, want)) {
		t.Fatal("drained checkpoint.json differs from batch reference")
	}
}

// TestPeriodicCheckpointAndRestore cuts a stream mid-flight, checkpoints,
// and brings up a second daemon from the file: the restored daemon's
// resume ack repositions the feeder, the replayed tail runs through a
// parser primed from the checkpointed cross-record state, and the final
// drain is byte-identical to a batch parse of the whole capture. The
// indented case restores the file as older daemons wrote it, one field
// per line, which a restart must still accept.
func TestPeriodicCheckpointAndRestore(t *testing.T) {
	t.Run("compact", func(t *testing.T) {
		checkpointAndRestore(t, func(mid []byte) []byte { return mid })
	})
	t.Run("indented", func(t *testing.T) {
		checkpointAndRestore(t, func(mid []byte) []byte {
			var buf bytes.Buffer
			if err := json.Indent(&buf, mid, "", " "); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(buf.Bytes(), mid) {
				t.Fatal("setup: re-indenting left the checkpoint unchanged")
			}
			return buf.Bytes()
		})
	})
}

// checkpointAndRestore runs the cut, checkpoint and restore cycle,
// passing the mid-stream checkpoint through rewrite before the second
// daemon reads it.
func checkpointAndRestore(t *testing.T, rewrite func(mid []byte) []byte) {
	data := capture(t, "A", 32)
	total := countRecords(t, data)
	half := recordPrefix(t, data, total/2)
	dir := t.TempDir()

	cfg := pipeline.Config{CheckpointDir: dir, CheckpointEvery: time.Hour} // manual checkpoints only
	d1, addr1 := startDaemon(t, cfg)
	cfg2 := cfg
	cfg2.CheckpointEvery = 2 * time.Millisecond // d2 must ack durability fast

	// Deliver the first half over a raw connection that then "crashes"
	// (closes without an end frame).
	conn, err := net.Dial("tcp", addr1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.WriteHello(conn, pipeline.Hello{Carrier: "A", Stream: "s0", Seq: 0}); err != nil {
		t.Fatal(err)
	}
	if err := pipeline.WriteFrame(conn, half); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, d1, func(s pipeline.Status) bool {
		return len(s.Streams) == 1 && s.Streams[0].IntakeSeq == uint64(total/2) && s.Streams[0].Snapshots > 0
	})
	if err := d1.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	mid, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, d1) // d1's drain overwrites the file; put the mid-stream one back
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), rewrite(mid), 0o644); err != nil {
		t.Fatal(err)
	}

	midCP, err := pipeline.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(midCP.Resume) != 1 || midCP.Resume[0].Seq == 0 || midCP.Resume[0].Complete {
		t.Fatalf("mid-stream checkpoint resume is wrong: %+v", midCP.Resume)
	}
	restoredSeq := midCP.Resume[0].Seq

	d2 := pipeline.NewDaemon(cfg2)
	n, err := d2.Restore()
	if err != nil || n != 1 {
		t.Fatalf("Restore() = %d, %v; want 1 stream", n, err)
	}
	addr2, err := d2.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The feeder offers the whole capture; the resume ack must skip the
	// restored prefix. Its hello seq continues from the crashed
	// connection, as a surviving feeder's would.
	st, err := feeder.Feed(context.Background(), data, feeder.Options{
		Addr: addr2, Carrier: "A", Stream: "s0", Seed: 1,
		WaitDurable: true, DurableTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("resumed feed: %v", err)
	}
	if st.Records != total-int(restoredSeq) {
		t.Fatalf("resumed feeder sent %d records; want %d (total %d minus restored %d)",
			st.Records, total-int(restoredSeq), total, restoredSeq)
	}

	cp := drain(t, d2)
	want, err := pipeline.Reference([]pipeline.FeedInput{{Carrier: "A", Stream: "s0", Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCP(t, cp), encodeCP(t, want)) {
		t.Fatal("restored + resumed checkpoint differs from batch reference")
	}
}

// TestRestoreIgnoresDrainedCheckpoint: a drain checkpoint is a sealed
// artifact, not a resume point — a daemon starting over one begins fresh.
func TestRestoreIgnoresDrainedCheckpoint(t *testing.T) {
	data := capture(t, "A", 33)
	dir := t.TempDir()
	cfg := pipeline.Config{CheckpointDir: dir}
	d1, addr1 := startDaemon(t, cfg)
	if _, err := feeder.Feed(context.Background(), data, feeder.Options{Addr: addr1, Carrier: "A", Stream: "s0", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, d1, func(s pipeline.Status) bool { return completeStreams(s) == 1 })
	drain(t, d1)

	d2 := pipeline.NewDaemon(cfg)
	n, err := d2.Restore()
	if err != nil || n != 0 {
		t.Fatalf("Restore() over a drained checkpoint = %d, %v; want 0, nil", n, err)
	}
	drain(t, d2)
}

// TestRestoreRejectsDuplicateResume: a checkpoint whose resume section
// names a stream twice cannot come from CheckpointNow, which writes one
// entry per registered stream. Restore refuses it whole and registers no
// stream, instead of restoring one stream and reporting two.
func TestRestoreRejectsDuplicateResume(t *testing.T) {
	var cp pipeline.Checkpoint
	if err := json.Unmarshal(periodicCheckpoint(t), &cp); err != nil {
		t.Fatal(err)
	}
	if len(cp.Resume) != 1 {
		t.Fatalf("setup: periodic checkpoint resumes %d streams, want 1", len(cp.Resume))
	}
	cp.Resume = append(cp.Resume, cp.Resume[0])
	dir := t.TempDir()
	if err := cp.WriteFile(dir); err != nil {
		t.Fatal(err)
	}

	d := pipeline.NewDaemon(pipeline.Config{CheckpointDir: dir})
	n, err := d.Restore()
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("Restore() over a duplicated resume entry = %d, %v; want a duplicate error", n, err)
	}
	if n != 0 {
		t.Errorf("Restore() reported %d streams with its error, want 0", n)
	}
	if got := len(d.Status().Streams); got != 0 {
		t.Errorf("refused checkpoint left %d streams registered, want 0", got)
	}
	drain(t, d)
}

// TestPoisonIsFinal injects one extraction panic, at record 5: the
// stream is quarantined for good, with no restart. The kicked feeder's
// reconnects are shed at intake, and its resume ack never moves, so a
// WaitDurable feed ends on the no-progress guard instead of completing.
func TestPoisonIsFinal(t *testing.T) {
	data := capture(t, "A", 34)
	cfg := pipeline.Config{
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 2 * time.Millisecond,
		// One worker with a two-record shard queue keeps intake a few
		// records ahead of extraction, so the poison lands long before
		// the feeder has sent the whole capture.
		ExtractWorkers: 1,
		ShardQueue:     2,
	}
	n := 0
	cfg.Hooks.PanicRecord = func(car, stream string, rec sib.DiagRecord) bool {
		n++ // extract is single-goroutine per stream; no lock needed
		return n == 5
	}
	d, addr := startDaemon(t, cfg)

	_, err := feeder.Feed(context.Background(), data, feeder.Options{
		Addr: addr, Carrier: "A", Stream: "s0", Seed: 3,
		Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond, Retries: 5,
		WaitDurable: true, DurableTimeout: 30 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "no progress") {
		t.Fatalf("feed into a poisoned stream ended with %v; want the no-progress error", err)
	}

	status := d.Status()
	if status.Panics != 1 || status.Quarantined != 1 {
		t.Fatalf("panics = %d, quarantined = %d; want 1, 1", status.Panics, status.Quarantined)
	}
	ss := status.Streams[0]
	if !ss.Poisoned || ss.Complete {
		t.Fatalf("stream must stay poisoned and incomplete: %+v", ss)
	}
	if ss.ShedRecords == 0 {
		t.Fatalf("reconnects into a poisoned stream must be shed at intake: %+v", ss)
	}
	drain(t, d)
}
