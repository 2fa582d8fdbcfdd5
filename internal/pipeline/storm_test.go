package pipeline_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"mmlab/internal/pipeline"
	"mmlab/internal/pipeline/feeder"
)

// stormInputs builds a small fleet of captures across two carriers.
func stormInputs(t *testing.T, seed int64) []pipeline.FeedInput {
	t.Helper()
	var inputs []pipeline.FeedInput
	for i, car := range []string{"A", "T"} {
		for j := 0; j < 3; j++ {
			inputs = append(inputs, pipeline.FeedInput{
				Carrier: car,
				Stream:  fmt.Sprintf("s%d", j),
				Data:    capture(t, car, seed+int64(i*3+j)),
			})
		}
	}
	return inputs
}

// stormFaults is a reconnect-heavy schedule: stalls outlast the daemon's
// idle timeout (forcing server-side cuts), and mid-record disconnects,
// corruption, and garbage land on top.
var stormFaults = feeder.Faults{
	Disconnect: 0.10,
	Corrupt:    0.06,
	Garbage:    0.06,
	Stall:      0.04,
	StallMs:    120,
}

// TestReconnectStormLossless drives six lossy feeders through a
// daemon squeezed into tiny queues with a stalled aggregate stage and an
// aggressive idle timeout: connections churn constantly, backpressure
// reaches all the way into the sockets, and the drained checkpoint must
// still be byte-identical to the batch reference — backpressure may
// slow ingest, never lose it. Everything is seeded, so the run is pinned
// deterministic under -race.
func TestReconnectStormLossless(t *testing.T) {
	inputs := stormInputs(t, 61)
	cfg := pipeline.Config{
		ShardQueue:     8,
		AggregateQueue: 2,
		IdleTimeout:    60 * time.Millisecond,
	}
	cfg.Hooks.AggregateDelay = 200 * time.Microsecond
	d, addr := startDaemon(t, cfg)

	base := feeder.Options{
		Addr: addr, Seed: 611, Faults: stormFaults,
		Backoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond, Retries: 100,
	}
	stats, err := feeder.FeedFleet(context.Background(), inputs, base)
	if err != nil {
		t.Fatalf("storm fleet: %v", err)
	}
	var reconnects int
	for _, st := range stats {
		reconnects += st.Reconnects
	}
	if reconnects < len(inputs) {
		t.Fatalf("storm too calm: only %d reconnects across %d feeders", reconnects, len(inputs))
	}

	waitFor(t, d, func(s pipeline.Status) bool { return completeStreams(s) == len(inputs) })
	cp := drain(t, d)
	if d.Status().Drops != 0 {
		t.Fatalf("dropped updates under backpressure: %s", d.Status().Summary())
	}
	want, err := pipeline.Reference(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCP(t, cp), encodeCP(t, want)) {
		t.Fatal("storm checkpoint differs from batch reference under backpressure")
	}
}
