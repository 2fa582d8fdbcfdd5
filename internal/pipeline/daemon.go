package pipeline

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mmlab/internal/sib"
)

// Daemon is the long-running ingest service. Connections arrive over TCP
// or unix sockets, identify a (carrier, stream) pair, and deliver framed
// diag bytes; the daemon decodes them with a resynchronizing scanner,
// extracts configuration snapshots and handoff events through the
// bounded pipeline, and keeps live per-carrier catalogs and aggregates
// that a status query can inspect while ingest continues.
//
// Robustness contract: a damaged, stalled, panicking, or half-dead
// stream costs at most that one stream. Decode damage resynchronizes and
// is counted; an idle connection is cut but its stream state survives
// for the reconnect; a panic in extraction poisons only its stream; and
// Shutdown drains every stage and checkpoints what was ingested.
type Daemon struct {
	cfg Config
	p   *pipeline

	regMu sync.Mutex
	reg   map[streamKey]*streamState

	lnMu      sync.Mutex
	listeners []net.Listener
	ctl       net.Listener

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
	ctlWG    sync.WaitGroup

	accepted      atomic.Int64
	rejected      atomic.Int64
	connPanics    atomic.Int64
	seqViolations atomic.Int64

	ckptWG     sync.WaitGroup
	lastCkptMs atomic.Int64
	ckptCount  atomic.Int64
	ckptErrs   atomic.Int64

	stopping  chan struct{}
	stopOnce  sync.Once
	drainOnce sync.Once
	drainedCP *Checkpoint
	drainErr  error
	started   time.Time
}

// NewDaemon builds a daemon and starts its pipeline stages. It serves
// nothing until ListenTCP/ListenUnix attach ingest listeners; call
// Restore first to resume a prior periodic checkpoint.
func NewDaemon(cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	d := &Daemon{
		cfg:      cfg,
		p:        newPipeline(cfg),
		reg:      map[streamKey]*streamState{},
		conns:    map[net.Conn]struct{}{},
		stopping: make(chan struct{}),
		started:  time.Now(),
	}
	if d.ckptEnabled() {
		d.ckptWG.Add(1)
		go d.checkpointLoop()
	}
	return d
}

// ckptEnabled reports whether periodic checkpointing (and with it the
// durable-ack machinery) is on.
func (d *Daemon) ckptEnabled() bool {
	return d.cfg.CheckpointDir != "" && d.cfg.CheckpointEvery > 0
}

// checkpointLoop writes a periodic checkpoint every CheckpointEvery
// until shutdown (which writes the final drain checkpoint itself).
func (d *Daemon) checkpointLoop() {
	defer d.ckptWG.Done()
	t := time.NewTicker(d.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-d.stopping:
			return
		case <-t.C:
			if err := d.CheckpointNow(); err != nil {
				d.ckptErrs.Add(1)
			}
		}
	}
}

// CheckpointNow snapshots the aggregator without pausing ingest, writes
// a periodic (resumable) checkpoint atomically, and pushes durable acks
// to every live feeder connection so they can trim their replay buffers.
func (d *Daemon) CheckpointNow() error {
	results := d.p.agg.snapshot()
	cp := BuildCheckpoint(results)
	cp.Resume = resumeSection(results)
	if err := cp.WriteFile(d.cfg.CheckpointDir); err != nil {
		return err
	}
	d.lastCkptMs.Store(time.Now().UnixMilli())
	d.ckptCount.Add(1)
	d.regMu.Lock()
	states := make(map[streamKey]*streamState, len(d.reg))
	for k, st := range d.reg {
		states[k] = st
	}
	d.regMu.Unlock()
	for _, r := range results {
		if st := states[streamKey{carrier: r.Carrier, stream: r.Stream}]; st != nil {
			st.durable.Store(r.Seq)
			st.ackDurable(r.Seq)
		}
	}
	return nil
}

// Restore loads a prior periodic checkpoint from CheckpointDir (if any)
// and primes the daemon to continue it: the aggregator is seeded with
// the restored per-stream results, each stream's intake high-water mark
// is set so resume acks point feeders at the right record, and pending
// parser state is staged for the extract stage. It must run before any
// listener is attached. A missing checkpoint, or one without a resume
// section (a sealed drain artifact), restores nothing. A resume section
// that names a stream twice is refused whole: CheckpointNow writes one
// entry per registered stream, so a duplicate means a damaged file.
// Returns the number of streams restored.
func (d *Daemon) Restore() (int, error) {
	if d.cfg.CheckpointDir == "" {
		return 0, nil
	}
	cp, err := LoadCheckpoint(d.cfg.CheckpointDir)
	if err != nil || cp == nil {
		return 0, err
	}
	if len(cp.Resume) == 0 {
		return 0, nil
	}
	seen := make(map[streamKey]bool, len(cp.Resume))
	for _, rs := range cp.Resume {
		k := streamKey{carrier: rs.Carrier, stream: rs.Stream}
		if seen[k] {
			return 0, fmt.Errorf("pipeline: checkpoint resumes stream %s/%s twice", rs.Carrier, rs.Stream)
		}
		seen[k] = true
	}
	data := map[streamKey]*StreamCheckpoint{}
	for i := range cp.Streams {
		sc := &cp.Streams[i]
		data[streamKey{carrier: sc.Carrier, stream: sc.Stream}] = sc
	}
	for i := range cp.Resume {
		rs := &cp.Resume[i]
		st := d.stream(Hello{Carrier: rs.Carrier, Stream: rs.Stream})
		st.inSeq.Store(rs.Seq)
		st.records.Store(int64(rs.Seq))
		st.durable.Store(rs.Seq)
		r := &StreamResult{Carrier: rs.Carrier, Stream: rs.Stream, Complete: rs.Complete, Seq: rs.Seq}
		if sc := data[streamKey{carrier: rs.Carrier, stream: rs.Stream}]; sc != nil {
			r.Snapshots = sc.Snapshots
			r.Events = sc.Events
		}
		if rs.Parser != nil {
			r.Resume = rs.Parser
			r.Stats = rs.Parser.Stats
			st.restore.Store(&routedState{seq: rs.Seq, parser: rs.Parser})
		}
		d.p.agg.seed(st, r)
	}
	return len(cp.Resume), nil
}

// ListenTCP attaches an ingest listener on a TCP address and returns the
// bound address (useful with ":0").
func (d *Daemon) ListenTCP(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	d.addListener(ln)
	return ln.Addr().String(), nil
}

// ListenUnix attaches an ingest listener on a unix socket path.
func (d *Daemon) ListenUnix(path string) error {
	ln, err := net.Listen("unix", path)
	if err != nil {
		return err
	}
	d.addListener(ln)
	return nil
}

func (d *Daemon) addListener(ln net.Listener) {
	d.lnMu.Lock()
	d.listeners = append(d.listeners, ln)
	d.lnMu.Unlock()
	d.acceptWG.Add(1)
	go d.acceptLoop(ln)
}

func (d *Daemon) acceptLoop(ln net.Listener) {
	defer d.acceptWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (shutdown) or fatal
		}
		select {
		case <-d.stopping:
			conn.Close()
			return
		default:
		}
		d.accepted.Add(1)
		d.trackConn(conn, true)
		d.connWG.Add(1)
		go d.handle(conn)
	}
}

func (d *Daemon) trackConn(c net.Conn, add bool) {
	d.connMu.Lock()
	if add {
		d.conns[c] = struct{}{}
	} else {
		delete(d.conns, c)
	}
	d.connMu.Unlock()
}

// stream returns the persistent state for a stream identity, creating it
// on first contact and pinning it to an extract shard by identity hash —
// the routing decision that keeps a stream's records ordered.
func (d *Daemon) stream(h Hello) *streamState {
	key := streamKey{carrier: h.Carrier, stream: h.Stream}
	d.regMu.Lock()
	defer d.regMu.Unlock()
	if st := d.reg[key]; st != nil {
		return st
	}
	fh := fnv.New64a()
	fh.Write([]byte(h.Carrier))
	fh.Write([]byte{0})
	fh.Write([]byte(h.Stream))
	st := &streamState{key: key, shard: int(fh.Sum64() % uint64(len(d.p.shards)))}
	d.reg[key] = st
	return st
}

// deadlineReader arms the idle timeout before every read, so a stream
// that stops delivering bytes is cut instead of pinning a handler (and
// its stream lock) forever.
type deadlineReader struct {
	c net.Conn
	d time.Duration
}

func (r deadlineReader) Read(p []byte) (int, error) {
	if err := r.c.SetReadDeadline(time.Now().Add(r.d)); err != nil {
		return 0, err
	}
	return r.c.Read(p)
}

// handle is the per-connection decode stage, run under a supervisor: a
// panic is counted and closes this connection only.
func (d *Daemon) handle(conn net.Conn) {
	defer d.connWG.Done()
	defer d.trackConn(conn, false)
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			d.connPanics.Add(1)
		}
	}()

	br := bufio.NewReader(deadlineReader{c: conn, d: d.cfg.IdleTimeout})
	hello, err := ReadHello(br)
	if err != nil {
		d.rejected.Add(1)
		return
	}
	st := d.stream(hello)

	// Take the stream's turnstile: connections are admitted one at a
	// time and in hello-seq order, so a reconnect cannot overtake the
	// still-draining handler of the connection it replaces even when
	// goroutine scheduling starts the newer handler first.
	if !st.beginConn(hello.Seq, d.cfg.IdleTimeout) {
		d.seqViolations.Add(1)
	}
	defer st.endConn(hello.Seq)
	st.connects.Add(1)
	st.conns.Add(1)
	defer st.conns.Add(-1)

	// First ack: the resume point. Sent after the turnstile, so it
	// already accounts for everything earlier connections scanned in —
	// and, after a restart, for everything the restored checkpoint
	// covers. Only then does the connection register for durable acks,
	// so the resume ack is always the first frame the feeder reads.
	if err := st.sendAck(conn, st.inSeq.Load()); err != nil {
		st.disconnects.Add(1)
		return
	}
	st.setAckConn(conn)
	defer st.setAckConn(nil)

	fr := NewFrameReader(br)
	// Decode: the scanner resynchronizes past payload damage and copies
	// records out (Copy on — records cross stage queues and outlive the
	// scanner's reused buffer).
	sc := sib.NewStreamScanner(fr, sib.ScanOptions{Copy: true})
	var last sib.ScanStats
	publish := func() {
		cur := sc.Stats()
		st.records.Add(int64(cur.Records - last.Records))
		st.resyncs.Add(int64(cur.Resyncs - last.Resyncs))
		st.skipped.Add(int64(cur.SkippedBytes - last.SkippedBytes))
		last = cur
	}
	for {
		rec, ok, scanErr := sc.Next()
		publish()
		if !ok {
			if scanErr == nil && fr.End() && !st.poisoned.Load() {
				// Clean end of stream: tell extract to flush and seal it,
				// then hold the connection open so the checkpointer can
				// deliver the durable ack a waiting feeder needs.
				if d.p.send(item{st: st, kind: itemEnd, seq: st.inSeq.Load()}) {
					d.holdForAck(conn)
				}
			} else {
				// Disconnect (idle cut, transport death, bad frame, or a
				// poison landed mid-read): keep the stream's state for a
				// reconnect.
				st.disconnects.Add(1)
			}
			return
		}
		if st.poisoned.Load() {
			// Poisoned streams are shed at intake; cut the connection.
			// The feeder's reconnects find the resume ack stuck and give
			// up on its no-progress guard.
			st.shed.Add(1)
			st.disconnects.Add(1)
			return
		}
		seq := st.inSeq.Add(1)
		if !d.p.send(item{st: st, kind: itemRecord, rec: rec, seq: seq}) {
			return // pipeline torn down
		}
	}
}

// holdForAck keeps a cleanly-ended connection open until the feeder
// hangs up (bounded by the idle timeout), so the durable ack covering
// the stream's end can still be delivered: a WaitDurable feeder holds
// its replay buffer until then. Without periodic checkpointing there is
// no durable ack to wait for, and the hold is skipped. Any byte from
// the feeder after its end frame is a protocol violation and drops the
// connection.
func (d *Daemon) holdForAck(conn net.Conn) {
	if !d.ckptEnabled() {
		return
	}
	buf := make([]byte, 1)
	deadline := time.Now().Add(d.cfg.IdleTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.stopping:
			return
		default:
		}
		conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if _, err := conn.Read(buf); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return // feeder hung up
		}
		return // data after end: drop the connection
	}
}

// Shutdown is the graceful drain: stop accepting, cut the remaining
// connections, flush every stage in order, checkpoint, and return the
// final state. The context bounds the drain; on expiry the pipeline is
// aborted (blocking sends released) and what was already aggregated is
// still checkpointed.
func (d *Daemon) Shutdown(ctx context.Context) (*Checkpoint, error) {
	d.drainOnce.Do(func() { d.drainedCP, d.drainErr = d.shutdown(ctx) })
	return d.drainedCP, d.drainErr
}

func (d *Daemon) shutdown(ctx context.Context) (*Checkpoint, error) {
	d.stopOnce.Do(func() { close(d.stopping) })

	d.lnMu.Lock()
	for _, ln := range d.listeners {
		ln.Close()
	}
	d.lnMu.Unlock()
	d.acceptWG.Wait()

	// Cut live connections; handlers push what they already scanned and
	// exit via the disconnect path.
	d.connMu.Lock()
	for c := range d.conns {
		c.Close()
	}
	d.connMu.Unlock()

	var timedOut bool
	if !waitCtx(ctx, &d.connWG) {
		timedOut = true
		d.p.abort()
		d.connWG.Wait()
	}

	// The periodic checkpointer sees d.stopping closed; wait it out
	// before draining the stages so it cannot write mid-flush.
	d.ckptWG.Wait()

	// Flush stage by stage: close the shard queues, let extract drain
	// and flush every open parser, then close the aggregate queue.
	for _, ch := range d.p.shards {
		close(ch)
	}
	if !waitCtx(ctx, &d.p.extractWG) {
		timedOut = true
		d.p.abort()
		d.p.extractWG.Wait()
	}
	close(d.p.aggCh)
	d.p.aggWG.Wait()

	if d.ctl != nil {
		d.ctl.Close()
		d.ctlWG.Wait()
	}

	cp := BuildCheckpoint(d.p.agg.results())
	var err error
	if d.cfg.CheckpointDir != "" {
		err = cp.WriteFile(d.cfg.CheckpointDir)
	}
	if err == nil && timedOut {
		err = fmt.Errorf("pipeline: drain deadline expired; checkpoint may be partial: %w", ctx.Err())
	}
	return cp, err
}

// waitCtx waits for wg or the context, whichever first.
func waitCtx(ctx context.Context, wg *sync.WaitGroup) bool {
	done := make(chan struct{})
	//mmvet:allow gorphan exits when wg resolves; on timeout it outlives the select but is bounded by pipeline teardown, which joins every counted goroutine
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		return false
	}
}
