package pipeline_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"mmlab/internal/carrier"
	"mmlab/internal/crawler"
	"mmlab/internal/pipeline"
	"mmlab/internal/pipeline/feeder"
	"mmlab/internal/sib"
)

// capture crawls one carrier fleet into a clean diag byte stream — the
// same bytes `mmlab collect` would write.
func capture(t testing.TB, acronym string, seed int64) []byte {
	t.Helper()
	f, err := carrier.BuildFleet(acronym, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := crawler.CrawlFleet(context.Background(), f, &buf, seed, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func startDaemon(t testing.TB, cfg pipeline.Config) (*pipeline.Daemon, string) {
	t.Helper()
	d := pipeline.NewDaemon(cfg)
	addr, err := d.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return d, addr
}

func drain(t testing.TB, d *pipeline.Daemon) *pipeline.Checkpoint {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cp, err := d.Shutdown(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return cp
}

// waitFor polls cond until it holds — used to let in-flight stream ends
// clear the pipeline before draining, since feeders return as soon as
// their bytes are written, not when the daemon has aggregated them.
func waitFor(t testing.TB, d *pipeline.Daemon, cond func(pipeline.Status) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond(d.Status()) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached; status: %s", d.Status().Summary())
}

func completeStreams(s pipeline.Status) int {
	n := 0
	for _, ss := range s.Streams {
		if ss.Complete {
			n++
		}
	}
	return n
}

func encodeCP(t *testing.T, cp *pipeline.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDaemonMatchesBatch feeds one clean stream and checks the drained
// checkpoint is byte-identical to the batch reference.
func TestDaemonMatchesBatch(t *testing.T) {
	data := capture(t, "A", 3)
	d, addr := startDaemon(t, pipeline.Config{})
	st, err := feeder.Feed(context.Background(), data, feeder.Options{Addr: addr, Carrier: "A", Stream: "s0", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records == 0 {
		t.Fatal("feeder sent no records")
	}
	waitFor(t, d, func(s pipeline.Status) bool { return completeStreams(s) == 1 })
	cp := drain(t, d)

	want, err := pipeline.Reference([]pipeline.FeedInput{{Carrier: "A", Stream: "s0", Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	if got, wantB := encodeCP(t, cp), encodeCP(t, want); !bytes.Equal(got, wantB) {
		t.Fatalf("checkpoint differs from batch reference (%d vs %d bytes)", len(got), len(wantB))
	}
}

// TestDaemonPanicIsolation poisons one stream's extraction and checks
// the blast radius is exactly that stream: the other stream completes
// and the checkpoint equals a batch parse of it alone.
func TestDaemonPanicIsolation(t *testing.T) {
	dataBad := capture(t, "A", 5)
	dataGood := capture(t, "A", 6)
	cfg := pipeline.Config{}
	cfg.Hooks.PanicRecord = func(car, stream string, rec sib.DiagRecord) bool {
		return stream == "bad"
	}
	d, addr := startDaemon(t, cfg)

	fast := feeder.Options{Addr: addr, Carrier: "A", Seed: 1, Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Retries: 4}
	optBad := fast
	optBad.Stream = "bad"
	// The poisoned stream's feed may fail (daemon sheds it at intake) or
	// succeed (daemon absorbed the bytes before the poison landed); both
	// are fine — what matters is containment.
	if _, err := feeder.Feed(context.Background(), dataBad, optBad); err != nil {
		t.Logf("poisoned stream feed ended with: %v", err)
	}
	optGood := fast
	optGood.Stream = "good"
	if _, err := feeder.Feed(context.Background(), dataGood, optGood); err != nil {
		t.Fatalf("healthy stream must not be affected: %v", err)
	}

	waitFor(t, d, func(s pipeline.Status) bool { return completeStreams(s) == 1 && s.Quarantined == 1 })
	status := d.Status()
	// The first panic poisons the stream for good, so no later record
	// of it reaches extraction.
	if status.Panics != 1 {
		t.Errorf("panics = %d, want 1", status.Panics)
	}
	for _, ss := range status.Streams {
		if ss.Stream == "bad" && !ss.Poisoned {
			t.Error("poisoned stream not marked")
		}
		if ss.Stream == "good" && ss.Poisoned {
			t.Error("healthy stream marked poisoned")
		}
	}

	cp := drain(t, d)
	want, err := pipeline.Reference([]pipeline.FeedInput{{Carrier: "A", Stream: "good", Data: dataGood}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCP(t, cp), encodeCP(t, want)) {
		t.Fatal("checkpoint differs from batch reference of the healthy stream")
	}
}

// TestDaemonIdleTimeoutReconnect stalls the feeder past the daemon's
// idle timeout: the daemon must cut the silent connection, keep the
// stream's state, and resume on the reconnect with nothing lost.
func TestDaemonIdleTimeoutReconnect(t *testing.T) {
	data := capture(t, "A", 7)
	d, addr := startDaemon(t, pipeline.Config{IdleTimeout: 100 * time.Millisecond})
	st, err := feeder.Feed(context.Background(), data, feeder.Options{
		Addr: addr, Carrier: "A", Stream: "s0", Seed: 2,
		Faults: feeder.Faults{Stall: 0.002, StallMs: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Stalls == 0 {
		t.Fatal("fault schedule injected no stalls; bump the rate or seed")
	}
	waitFor(t, d, func(s pipeline.Status) bool { return completeStreams(s) == 1 })
	status := d.Status()
	if len(status.Streams) != 1 || status.Streams[0].Disconnects == 0 {
		t.Errorf("daemon never cut the idle connection: %s", status.Summary())
	}
	cp := drain(t, d)
	want, err := pipeline.Reference([]pipeline.FeedInput{{Carrier: "A", Stream: "s0", Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCP(t, cp), encodeCP(t, want)) {
		t.Fatal("checkpoint differs after idle cuts and reconnects")
	}
}

// TestDaemonBackpressureLossless saturates tiny queues: intake must
// slow down instead of dropping, and the result must still
// match the batch reference exactly.
func TestDaemonBackpressureLossless(t *testing.T) {
	data := capture(t, "A", 9)
	cfg := pipeline.Config{ExtractWorkers: 2, ShardQueue: 2, AggregateQueue: 1}
	cfg.Hooks.AggregateDelay = 200 * time.Microsecond
	d, addr := startDaemon(t, cfg)
	if _, err := feeder.Feed(context.Background(), data, feeder.Options{Addr: addr, Carrier: "A", Stream: "s0", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, d, func(s pipeline.Status) bool { return completeStreams(s) == 1 })
	cp := drain(t, d)
	if got := d.Status(); got.Drops != 0 {
		t.Errorf("%d drops under backpressure", got.Drops)
	}
	want, err := pipeline.Reference([]pipeline.FeedInput{{Carrier: "A", Stream: "s0", Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCP(t, cp), encodeCP(t, want)) {
		t.Fatal("checkpoint differs under backpressure")
	}
}

// TestDaemonStatusSocket exercises the control socket end to end.
func TestDaemonStatusSocket(t *testing.T) {
	data := capture(t, "A", 13)
	d, addr := startDaemon(t, pipeline.Config{})
	sock := t.TempDir() + "/ctl.sock"
	if err := d.ListenControl(sock); err != nil {
		t.Fatal(err)
	}
	if _, err := feeder.Feed(context.Background(), data, feeder.Options{
		Addr: addr, Carrier: "A", Stream: "s0", Seed: 5,
		Faults: feeder.Faults{Corrupt: 0.2},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, d, func(s pipeline.Status) bool { return completeStreams(s) == 1 })

	remote, err := pipeline.QueryStatus(sock)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote.Streams) != 1 || remote.Streams[0].Carrier != "A" || remote.Streams[0].Stream != "s0" {
		t.Fatalf("status streams = %+v", remote.Streams)
	}
	if remote.Streams[0].Resyncs == 0 {
		t.Error("corrupted feed must show resyncs in status")
	}
	sum := remote.Summary()
	// The keys operators and CI's daemon-smoke job grep for.
	for _, field := range []string{"streams=1", "complete=1", "records=", "resyncs=", "drops=0", "panics=0", "quarantined=0", "checkpoints="} {
		if !strings.Contains(sum, field) {
			t.Errorf("summary %q missing %q", sum, field)
		}
	}
	drain(t, d)
}

// TestControlRequestBounded sends a control request far larger than
// "status\n" with no newline: the daemon must hang up well before its 5 s
// request deadline instead of buffering it, and keep serving queries.
func TestControlRequestBounded(t *testing.T) {
	d, _ := startDaemon(t, pipeline.Config{})
	sock := t.TempDir() + "/ctl.sock"
	if err := d.ListenControl(sock); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	conn.Write(bytes.Repeat([]byte{'x'}, 1<<20)) // fails once the daemon hangs up
	n, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("control connection still open 3 s into an oversized request")
	}
	if n > 0 {
		t.Fatal("daemon answered an oversized request")
	}
	if _, err := pipeline.QueryStatus(sock); err != nil {
		t.Fatalf("status after an oversized request: %v", err)
	}
	drain(t, d)
}
