package pipeline

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mmlab/internal/crawler"
	"mmlab/internal/sib"
)

// Hooks are fault-injection points for robustness tests: they let a test
// poison a stream mid-flight or stall the aggregate stage to force the
// queues into saturation. Zero value: no interference.
type Hooks struct {
	// PanicRecord, when non-nil, is consulted for every record entering
	// the extract stage; returning true panics that stream's extraction
	// — the daemon must contain the blast to the one stream.
	PanicRecord func(carrier, stream string, rec sib.DiagRecord) bool
	// AggregateDelay stalls the aggregate stage per update.
	AggregateDelay time.Duration
}

// Config parameterizes the daemon.
type Config struct {
	// ExtractWorkers is the extract-stage pool size; streams are sharded
	// across workers by identity so per-stream record order is
	// preserved. Default: min(4, GOMAXPROCS).
	ExtractWorkers int
	// ShardQueue bounds each extract shard's record queue. Default 1024.
	ShardQueue int
	// AggregateQueue bounds the route→aggregate update queue. Default 256.
	// A full queue applies backpressure: the extract stage blocks, its
	// shard queues fill, connection readers stop pulling, and the
	// kernel's socket buffers slow the senders down. Nothing is lost;
	// intake slows instead of memory growing.
	AggregateQueue int
	// IdleTimeout bounds how long a connection may sit without
	// delivering a byte before it is cut (the stream's extraction state
	// survives the cut; a reconnect resumes it). Default 30s.
	IdleTimeout time.Duration
	// CheckpointDir, when set, receives checkpoint.json on drain.
	CheckpointDir string
	// CheckpointEvery enables periodic incremental checkpointing: every
	// interval the live per-carrier catalogs, per-stream data, and
	// resume state are snapshotted (without pausing ingest) and written
	// atomically to CheckpointDir, and live feeders receive a durable
	// ack for the covered records. 0 (the default) keeps the historical
	// drain-only behavior.
	CheckpointEvery time.Duration
	// Hooks inject faults for tests.
	Hooks Hooks
}

func (c Config) withDefaults() Config {
	if c.ExtractWorkers <= 0 {
		c.ExtractWorkers = 4
		if n := runtime.GOMAXPROCS(0); n < 4 {
			c.ExtractWorkers = n
		}
	}
	if c.ShardQueue <= 0 {
		c.ShardQueue = 1024
	}
	if c.AggregateQueue <= 0 {
		c.AggregateQueue = 256
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	return c
}

// streamKey identifies one diag stream across reconnects.
type streamKey struct {
	carrier, stream string
}

// streamState is the daemon-side identity of a stream. It outlives any
// one connection: the intake counters, the shard assignment, and the
// poison flag all survive disconnects, so a reconnecting feeder resumes
// exactly where the transport cut it.
type streamState struct {
	key   streamKey
	shard int

	// The turnstile admits this stream's connections one at a time and
	// in hello-seq order: a reconnect waits until the handler of every
	// earlier connection has pushed what it scanned, even if goroutine
	// scheduling started the newer handler first — the ordering
	// guarantee that makes resumed streams byte-equivalent to
	// uninterrupted ones. A seq gap (a connection whose hello never
	// arrived) stops blocking successors after maxWait, so a broken
	// client degrades ordering instead of wedging its stream.
	turnMu   sync.Mutex
	turnCond *sync.Cond
	active   bool   // a connection handler currently owns the stream
	nextSeq  uint64 // lowest hello seq not yet completed
	// seen flips on the first connection this process admits; that
	// connection's hello seq becomes the turnstile baseline, so a feeder
	// whose connection count survived a daemon restart isn't made to wait
	// for predecessors the previous process already served.
	seen bool

	// inSeq is the intake high-water mark: how many of the stream's
	// records this daemon owns — scanned off the wire into the pipeline,
	// or restored from a checkpoint. It is the resume point sent as the
	// first ack of every connection.
	inSeq atomic.Uint64
	// durable is the record count covered by the last written checkpoint.
	durable atomic.Uint64

	// restore, when non-nil, is consumed once by the extract stage to
	// prime the stream's parser from a restored checkpoint. It holds an
	// immutable value.
	restore atomic.Pointer[routedState]

	// ackMu serializes ack writes to the stream's live connection: the
	// handler's initial resume ack, the checkpointer's durable acks, and
	// the kick on poison.
	ackMu   sync.Mutex
	ackConn net.Conn

	// Intake-side counters, written by the connection handler.
	records     atomic.Int64
	resyncs     atomic.Int64
	skipped     atomic.Int64
	connects    atomic.Int64
	disconnects atomic.Int64
	conns       atomic.Int64
	shed        atomic.Int64 // records discarded at intake while poisoned

	// poisoned is set, for good, by a panic in the stream's extraction.
	poisoned atomic.Bool
}

// routedState is a parse position: a record count and the parser's
// cross-record state at exactly that point (nil parser = fresh).
type routedState struct {
	seq    uint64
	parser *crawler.ParserResume
}

// setAckConn registers (or clears) the stream's live connection for
// daemon→feeder acks.
func (st *streamState) setAckConn(c net.Conn) {
	st.ackMu.Lock()
	st.ackConn = c
	st.ackMu.Unlock()
}

// sendAck writes one ack frame to the given connection under the ack
// lock, so it cannot interleave with a checkpointer's durable ack.
func (st *streamState) sendAck(c net.Conn, seq uint64) error {
	st.ackMu.Lock()
	defer st.ackMu.Unlock()
	c.SetWriteDeadline(time.Now().Add(ackWriteTimeout))
	err := WriteAck(c, seq)
	c.SetWriteDeadline(time.Time{})
	return err
}

// ackDurable pushes a durable high-water mark to the live connection, if
// any. Failures are ignored: a feeder that misses a durable ack just
// buffers longer.
func (st *streamState) ackDurable(seq uint64) {
	st.ackMu.Lock()
	defer st.ackMu.Unlock()
	if st.ackConn == nil {
		return
	}
	st.ackConn.SetWriteDeadline(time.Now().Add(ackWriteTimeout))
	if WriteAck(st.ackConn, seq) != nil {
		st.ackConn.Close()
		st.ackConn = nil
		return
	}
	st.ackConn.SetWriteDeadline(time.Time{})
}

// kick closes the stream's live connection (used at poison time so the
// feeder stops streaming into a void).
func (st *streamState) kick() {
	st.ackMu.Lock()
	if st.ackConn != nil {
		st.ackConn.Close()
		st.ackConn = nil
	}
	st.ackMu.Unlock()
}

// ackWriteTimeout bounds any single daemon→feeder ack write.
const ackWriteTimeout = 2 * time.Second

// beginConn blocks until this connection may process the stream: no
// other handler active and every earlier seq completed. After maxWait
// the seq-ordering wait is abandoned (exclusivity never is) and the
// return value reports the ordering violation.
func (st *streamState) beginConn(seq uint64, maxWait time.Duration) (ordered bool) {
	st.turnMu.Lock()
	defer st.turnMu.Unlock()
	if st.turnCond == nil {
		st.turnCond = sync.NewCond(&st.turnMu)
	}
	if !st.seen {
		// First admission in this process: a feeder's connection count
		// survives daemon restarts, so its seq seeds the baseline rather
		// than being treated as a gap behind connections a previous
		// process already retired. Safe because a feeder writes nothing
		// before reading this connection's resume ack, which is sent
		// after the turnstile is acquired.
		st.seen = true
		if st.nextSeq < seq {
			st.nextSeq = seq
		}
	}
	deadline := time.Now().Add(maxWait)
	ordered = true
	for {
		if !st.active && (st.nextSeq >= seq || !ordered) {
			break
		}
		if ordered && st.nextSeq < seq && time.Now().After(deadline) {
			ordered = false
			continue
		}
		if ordered && st.nextSeq < seq {
			// Waiting on a missing predecessor: arm a wake-up so the
			// deadline is honored even if no handler ever broadcasts.
			wake := time.AfterFunc(time.Until(deadline)+time.Millisecond, st.turnCond.Broadcast)
			st.turnCond.Wait()
			wake.Stop()
		} else {
			st.turnCond.Wait()
		}
	}
	st.active = true
	return ordered
}

// endConn releases the turnstile and retires every seq up to this one.
func (st *streamState) endConn(seq uint64) {
	st.turnMu.Lock()
	st.active = false
	if st.nextSeq <= seq {
		st.nextSeq = seq + 1
	}
	st.turnCond.Broadcast()
	st.turnMu.Unlock()
}

// itemKind tags pipeline items.
type itemKind uint8

const (
	itemRecord itemKind = iota
	itemEnd
)

// item is one unit on a decode→extract shard queue. seq is the record's
// 1-based position in the stream.
type item struct {
	st   *streamState
	kind itemKind
	rec  sib.DiagRecord
	seq  uint64
}

// update is one unit on the route→aggregate queue. Stats is a cumulative
// snapshot (not a delta). seq is the record high-water mark the payload
// accounts for, and resume the parser's state at exactly that point.
type update struct {
	st     *streamState
	snaps  []crawler.ConfigSnapshot
	events []crawler.HandoffEvent
	stats  crawler.ParseStats
	end    bool
	seq    uint64
	resume *crawler.ParserResume
}

// pipeline is the bounded stage graph.
type pipeline struct {
	cfg    Config
	shards []chan item
	aggCh  chan update
	agg    *aggregator

	extractWG sync.WaitGroup
	aggWG     sync.WaitGroup

	// aborted is closed when a drain deadline expires: every blocking
	// stage send selects on it, so a wedged pipeline can still be torn
	// down deterministically.
	aborted   chan struct{}
	abortOnce sync.Once

	panics atomic.Int64
}

func newPipeline(cfg Config) *pipeline {
	p := &pipeline{
		cfg:     cfg,
		shards:  make([]chan item, cfg.ExtractWorkers),
		aggCh:   make(chan update, cfg.AggregateQueue),
		agg:     newAggregator(),
		aborted: make(chan struct{}),
	}
	for i := range p.shards {
		p.shards[i] = make(chan item, cfg.ShardQueue)
	}
	for i := range p.shards {
		p.extractWG.Add(1)
		go p.extract(i)
	}
	p.aggWG.Add(1)
	go p.aggregate()
	return p
}

func (p *pipeline) abort() { p.abortOnce.Do(func() { close(p.aborted) }) }

// send enqueues an item on the stream's shard, blocking for backpressure.
// false means the pipeline is being torn down.
func (p *pipeline) send(it item) bool {
	select {
	case p.shards[it.st.shard] <- it:
		return true
	case <-p.aborted:
		return false
	}
}

// extractState is one stream's position within an extract worker: its
// parser and the seq of the last record fed into it.
type extractState struct {
	sp  *crawler.StreamParser
	seq uint64
}

// extract is one extract-stage worker: it owns the StreamParser of every
// stream sharded onto it, so records of a stream are always parsed in
// arrival order by a single goroutine. A panic while parsing — a
// poisoned record, a bug tickled by hostile bytes — is contained: the
// stream is poisoned and dropped, and the worker and every other stream
// keep running.
func (p *pipeline) extract(w int) {
	defer p.extractWG.Done()
	parsers := map[*streamState]*extractState{}
	for it := range p.shards[w] {
		st := it.st
		if st.poisoned.Load() {
			continue
		}
		es := parsers[st]
		if es == nil {
			es = newExtractState(st)
			parsers[st] = es
		}
		switch it.kind {
		case itemRecord:
			if !p.feedSupervised(st, es.sp, it.rec) {
				delete(parsers, st)
				continue
			}
			es.seq = it.seq
			p.route(st, es, false)
		case itemEnd:
			es.sp.Close()
			es.seq = it.seq
			p.route(st, es, true)
			delete(parsers, st)
		}
	}
	// Drain: flush every stream still open (its feeder disconnected or
	// the daemon is shutting down mid-stream) so partial data reaches
	// the aggregates, exactly as a batch parse flushes at EOF.
	for st, es := range parsers {
		es.sp.Close()
		p.route(st, es, false)
	}
}

// newExtractState builds the stream's parser, primed from a pending
// restore position when the daemon restored one and fresh otherwise.
func newExtractState(st *streamState) *extractState {
	if rs := st.restore.Swap(nil); rs != nil {
		if rs.parser != nil {
			return &extractState{sp: crawler.NewStreamParserFrom(*rs.parser), seq: rs.seq}
		}
		return &extractState{sp: crawler.NewStreamParser(), seq: rs.seq}
	}
	return &extractState{sp: crawler.NewStreamParser()}
}

// feedSupervised runs one record through the parser, recovering a
// panic; false means the stream just got poisoned.
func (p *pipeline) feedSupervised(st *streamState, sp *crawler.StreamParser, rec sib.DiagRecord) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			p.poison(st)
			ok = false
		}
	}()
	if h := p.cfg.Hooks.PanicRecord; h != nil && h(st.key.carrier, st.key.stream, rec) {
		panic("pipeline: injected extract panic")
	}
	sp.Feed(rec)
	return true
}

// poison marks the stream dead for good and kicks its live connection,
// so the feeder stops streaming into a void: its reconnects are shed at
// intake and never make progress. There is no restart, because
// extraction is a pure function of the parser state and the record
// bytes: a rewind would replay the same records into the same state and
// fire the same panic.
func (p *pipeline) poison(st *streamState) {
	st.poisoned.Store(true)
	st.kick()
}

// route is the route stage: it takes what the parser completed since the
// last call and forwards it to the aggregate queue, blocking while the
// queue is full.
func (p *pipeline) route(st *streamState, es *extractState, end bool) {
	sp := es.sp
	snaps := sp.TakeSnapshots()
	events := sp.TakeEvents()
	if len(snaps) == 0 && len(events) == 0 && !end {
		return
	}
	u := update{st: st, snaps: snaps, events: events, stats: sp.Stats(), end: end, seq: es.seq}
	if !end {
		r := sp.Resume()
		u.resume = &r
	}
	select {
	case p.aggCh <- u:
	case <-p.aborted:
	}
}

// aggregate is the aggregate stage: the single goroutine that owns the
// in-memory per-stream results and per-carrier aggregates.
func (p *pipeline) aggregate() {
	defer p.aggWG.Done()
	for u := range p.aggCh {
		if d := p.cfg.Hooks.AggregateDelay; d > 0 {
			time.Sleep(d)
		}
		p.agg.apply(u)
	}
}

// queueDepths samples the bounded queues (for status; racy by nature).
func (p *pipeline) queueDepths() ([]int, int) {
	depths := make([]int, len(p.shards))
	for i, ch := range p.shards {
		depths[i] = len(ch)
	}
	return depths, len(p.aggCh)
}
