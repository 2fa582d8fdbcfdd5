package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mmlab/internal/carrier"
	"mmlab/internal/crawler"
	"mmlab/internal/pipeline"
	"mmlab/internal/pipeline/feeder"
	"mmlab/internal/sib"
	"mmlab/internal/sim"
)

// Ingest input: two captures for each of two carriers at scale 0.1,
// about 41k records and 3.5 MB in all.
const (
	ingestScale    = 0.1
	ingestCaptures = 2
)

var ingestCarriers = []string{"A", "T"}

// ingestWorkload is mmlabd's path: captures streamed record by record
// over loopback TCP into a daemon, drained into a checkpoint.
type ingestWorkload struct {
	feeds []pipeline.FeedInput
	want  []byte // pipeline.Reference of the inputs, encoded
	cycle int

	// Set-up timings, reported by the traced run.
	fleetMs, crawlS []float64
	referenceMs     float64
}

func (w *ingestWorkload) setup(e *env) error {
	w.feeds = nil
	w.fleetMs, w.crawlS = nil, nil
	for _, acr := range ingestCarriers {
		t := time.Now()
		f, err := carrier.BuildFleet(acr, ingestScale)
		if err != nil {
			return err
		}
		w.fleetMs = append(w.fleetMs, msSince(t))
		for k := 0; k < ingestCaptures; k++ {
			stream := fmt.Sprintf("s%d", k)
			var buf bytes.Buffer
			t := time.Now()
			if _, err := crawler.CrawlFleet(e.ctx, f, &buf, sim.DeriveSeedLabel(e.seed, acr+"/"+stream), e.workers); err != nil {
				return err
			}
			w.crawlS = append(w.crawlS, time.Since(t).Seconds())
			w.feeds = append(w.feeds, pipeline.FeedInput{Carrier: acr, Stream: stream, Data: buf.Bytes()})
		}
	}
	return w.reference(e)
}

// reference builds the batch checkpoint the daemon must drain to.
func (w *ingestWorkload) reference(e *env) error {
	t := time.Now()
	ref, err := pipeline.Reference(w.feeds)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ref.Encode(&buf); err != nil {
		return err
	}
	w.referenceMs = msSince(t)
	w.want = buf.Bytes()
	return os.MkdirAll(e.dir, 0o755)
}

func (w *ingestWorkload) inputs() map[string]float64 {
	recs, size := 0, 0
	for _, in := range w.feeds {
		size += len(in.Data)
		for sc := sib.NewDiagScanner(in.Data); ; recs++ {
			if _, ok := sc.Next(); !ok {
				break
			}
		}
	}
	return map[string]float64{
		"scale": ingestScale, "streams": float64(len(w.feeds)), "records": float64(recs),
		"capture_bytes": float64(size), "checkpoint_bytes": float64(len(w.want)),
	}
}

// op runs one daemon lifetime: start, feed every stream with at most
// e.workers connections open, wait until every stream is complete, and
// drain into a checkpoint on disk.
func (w *ingestWorkload) op(e *env, tr *Tracer, root int) (opResult, error) {
	res := opResult{attempted: len(w.feeds)}
	w.cycle++
	dir := filepath.Join(e.dir, fmt.Sprintf("cp%d", w.cycle))
	defer os.RemoveAll(dir)

	start := time.Now()
	ingestSpan := tr.Start("pipeline.ingest", root)
	d := pipeline.NewDaemon(pipeline.Config{CheckpointDir: dir})
	addr, err := d.ListenTCP("127.0.0.1:0")
	if err != nil {
		tr.End(ingestSpan)
		_, _ = d.Shutdown(e.ctx) // the listen error is what gets reported
		return res, fmt.Errorf("ingest: listen: %w", err)
	}

	// The traced run samples queue depths while records flow; the
	// untraced run leaves the daemon alone until the feeders are done.
	var qmax queueMax
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	if tr != nil {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				qmax.observe(d.Status())
				select {
				case <-stopPoll:
					return
				case <-time.After(time.Millisecond):
				}
			}
		}()
	}

	stats, feedErr := w.feedAll(e.ctx, addr, e.workers, tr, ingestSpan)
	var status pipeline.Status
	if feedErr == nil {
		status, feedErr = waitComplete(e.ctx, d, len(w.feeds))
	}
	streamS := time.Since(start).Seconds()
	close(stopPoll)
	pollWG.Wait()
	tr.End(ingestSpan)

	t := time.Now()
	var drainErr error
	tr.Do("pipeline.shutdown", root, func(int) {
		ctx, cancel := context.WithTimeout(e.ctx, 120*time.Second)
		defer cancel()
		_, drainErr = d.Shutdown(ctx)
	})
	res.drain = time.Since(t).Seconds()
	if feedErr != nil {
		return res, fmt.Errorf("ingest: %w", feedErr)
	}
	if drainErr != nil {
		return res, fmt.Errorf("ingest: drain: %w", drainErr)
	}
	got, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		return res, fmt.Errorf("ingest: %w", err)
	}
	tr.Do("bench.check", root, func(int) { res.failed, res.problems = checkIngest(got, w.want, status.Streams, len(w.feeds)) })
	res.wall = time.Since(start).Seconds()

	records, reconnects, rewinds := 0, 0, 0
	for _, st := range stats {
		records += st.Records
		reconnects += st.Reconnects
		rewinds += st.Rewinds
	}
	res.records = float64(records)
	res.produceS = streamS
	if tr != nil {
		qmax.observe(status)
		var resyncs int64
		for _, s := range status.Streams {
			resyncs += s.Resyncs
		}
		res.layer = Metrics{}
		res.layer.set("pipeline.shard_queue_max", float64(qmax.shard))
		res.layer.set("pipeline.agg_queue_max", float64(qmax.agg))
		res.layer.set("pipeline.drops", float64(status.Drops))
		res.layer.set("pipeline.resyncs", float64(resyncs))
		res.layer.set("pipeline.checkpoint_mb", float64(len(got))/1e6)
		res.layer.set("feeder.reconnects", float64(reconnects))
		res.layer.set("feeder.rewinds", float64(rewinds))
		res.layer.set("carrier.build_fleet_ms", median(w.fleetMs))
		res.layer.set("crawler.crawl_fleet_s", median(w.crawlS))
		res.layer.set("pipeline.reference_ms", w.referenceMs)
	}
	return res, nil
}

// feedAll sends every input as its own stream, at most conns at a time,
// and returns the feeders' stats in input order.
func (w *ingestWorkload) feedAll(ctx context.Context, addr string, conns int, tr *Tracer, parent int) ([]feeder.Stats, error) {
	stats := make([]feeder.Stats, len(w.feeds))
	errs := make([]error, len(w.feeds))
	sem := make(chan struct{}, max(conns, 1))
	var wg sync.WaitGroup
	for i, in := range w.feeds {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, in pipeline.FeedInput) {
			defer wg.Done()
			defer func() { <-sem }()
			tr.Do("feeder.feed", parent, func(int) {
				stats[i], errs[i] = feeder.Feed(ctx, in.Data, feeder.Options{
					Addr: addr, Carrier: in.Carrier, Stream: in.Stream, Seed: int64(i + 1),
				})
			})
		}(i, in)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return stats, fmt.Errorf("feed %s/%s: %w", w.feeds[i].Carrier, w.feeds[i].Stream, err)
		}
	}
	return stats, nil
}

// waitComplete polls the daemon until n streams report Complete: a
// feeder returns once its bytes are written, before the daemon has
// aggregated them.
func waitComplete(ctx context.Context, d *pipeline.Daemon, n int) (pipeline.Status, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		s := d.Status()
		done := 0
		for _, ss := range s.Streams {
			if ss.Complete {
				done++
			}
		}
		if done >= n {
			return s, nil
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("%d of %d streams complete after 60s", done, n)
		}
		select {
		case <-ctx.Done():
			return s, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// queueMax tracks the deepest queues seen in Status samples.
type queueMax struct{ shard, agg int }

func (q *queueMax) observe(s pipeline.Status) {
	for _, n := range s.Queues.Shards {
		q.shard = max(q.shard, n)
	}
	q.agg = max(q.agg, s.Queues.Aggregate)
}
