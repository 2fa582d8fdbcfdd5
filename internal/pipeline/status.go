package pipeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"time"
)

// Status is a live snapshot of the daemon: per-stream scan and parse
// statistics, queue depths, and the panic counters. It is served over
// the control socket while ingest continues.
type Status struct {
	UptimeMs    int64 `json:"uptimeMs"`
	Accepted    int64 `json:"accepted"`
	Rejected    int64 `json:"rejected"`
	ActiveConns int   `json:"activeConns"`
	// Drops is always 0: the daemon never sheds an update, a full queue
	// blocks instead. The field stays for readers of the status JSON.
	Drops         int64 `json:"drops"`
	Panics        int64 `json:"panics"`
	ConnPanics    int64 `json:"connPanics"`
	SeqViolations int64 `json:"seqViolations"`
	// Crash-safety counters: periodic checkpoints written (and failed),
	// the wall-clock of the last one (unix ms, 0 if none yet), and the
	// number of streams quarantined (poisoned for good) by a panic.
	Checkpoints      int64          `json:"checkpoints"`
	CheckpointErrs   int64          `json:"checkpointErrs,omitempty"`
	LastCheckpointMs int64          `json:"lastCheckpointMs,omitempty"`
	Quarantined      int64          `json:"quarantined"`
	Queues           QueueStatus    `json:"queues"`
	Streams          []StreamStatus `json:"streams"`
}

// QueueStatus samples the bounded queues.
type QueueStatus struct {
	Shards       []int `json:"shards"`
	ShardCap     int   `json:"shardCap"`
	Aggregate    int   `json:"aggregate"`
	AggregateCap int   `json:"aggregateCap"`
}

// StreamStatus is one stream's live counters: the intake/decode side
// (records scanned off the wire, resynchronized damage, connection
// churn) and the extract/aggregate side (decoded messages, snapshots,
// events).
type StreamStatus struct {
	Carrier      string `json:"carrier"`
	Stream       string `json:"stream"`
	Connected    bool   `json:"connected"`
	Connects     int64  `json:"connects"`
	Disconnects  int64  `json:"disconnects"`
	Records      int64  `json:"records"`
	Resyncs      int64  `json:"resyncs"`
	SkippedBytes int64  `json:"skippedBytes"`
	Decoded      int    `json:"decoded"`
	Bad          int    `json:"bad"`
	Snapshots    int    `json:"snapshots"`
	Events       int    `json:"events"`
	// Drops is always 0, as in Status.
	Drops    int64 `json:"drops"`
	Complete bool  `json:"complete"`
	Poisoned bool  `json:"poisoned"`
	// Crash-safety counters: records discarded at intake while the
	// stream was poisoned, and the stream's intake vs
	// durably-checkpointed record high-water marks.
	ShedRecords int64  `json:"shedRecords"`
	IntakeSeq   uint64 `json:"intakeSeq"`
	DurableSeq  uint64 `json:"durableSeq"`
}

// Status snapshots the daemon's live state.
func (d *Daemon) Status() Status {
	shards, agg := d.p.queueDepths()
	s := Status{
		UptimeMs:         time.Since(d.started).Milliseconds(),
		Accepted:         d.accepted.Load(),
		Rejected:         d.rejected.Load(),
		Panics:           d.p.panics.Load(),
		ConnPanics:       d.connPanics.Load(),
		SeqViolations:    d.seqViolations.Load(),
		Checkpoints:      d.ckptCount.Load(),
		CheckpointErrs:   d.ckptErrs.Load(),
		LastCheckpointMs: d.lastCkptMs.Load(),
		Queues:           QueueStatus{Shards: shards, ShardCap: d.cfg.ShardQueue, Aggregate: agg, AggregateCap: d.cfg.AggregateQueue},
	}
	d.connMu.Lock()
	s.ActiveConns = len(d.conns)
	d.connMu.Unlock()

	d.regMu.Lock()
	states := make([]*streamState, 0, len(d.reg))
	for _, st := range d.reg {
		states = append(states, st)
	}
	d.regMu.Unlock()
	sort.Slice(states, func(i, j int) bool {
		if states[i].key.carrier != states[j].key.carrier {
			return states[i].key.carrier < states[j].key.carrier
		}
		return states[i].key.stream < states[j].key.stream
	})
	for _, st := range states {
		ss := StreamStatus{
			Carrier:      st.key.carrier,
			Stream:       st.key.stream,
			Connected:    st.conns.Load() > 0,
			Connects:     st.connects.Load(),
			Disconnects:  st.disconnects.Load(),
			Records:      st.records.Load(),
			Resyncs:      st.resyncs.Load(),
			SkippedBytes: st.skipped.Load(),
			Poisoned:     st.poisoned.Load(),
			ShedRecords:  st.shed.Load(),
			IntakeSeq:    st.inSeq.Load(),
			DurableSeq:   st.durable.Load(),
		}
		if r, ok := d.p.agg.resultFor(st); ok {
			ss.Decoded = r.Stats.Records
			ss.Bad = r.Stats.Bad
			ss.Snapshots = len(r.Snapshots)
			ss.Events = len(r.Events)
			ss.Complete = r.Complete
		}
		if ss.Poisoned {
			s.Quarantined++
		}
		s.Streams = append(s.Streams, ss)
	}
	return s
}

// Summary renders the one-line operator view.
func (s Status) Summary() string {
	var records, resyncs, skipped, bad, snaps, events, shed int64
	complete := 0
	for _, st := range s.Streams {
		records += st.Records
		resyncs += st.Resyncs
		skipped += st.SkippedBytes
		bad += int64(st.Bad)
		snaps += int64(st.Snapshots)
		events += int64(st.Events)
		shed += st.ShedRecords
		if st.Complete {
			complete++
		}
	}
	lastCkpt := "none"
	if s.LastCheckpointMs > 0 {
		lastCkpt = time.UnixMilli(s.LastCheckpointMs).UTC().Format(time.RFC3339)
	}
	return fmt.Sprintf(
		"streams=%d complete=%d conns=%d records=%d snapshots=%d events=%d resyncs=%d skipped_bytes=%d bad=%d drops=%d panics=%d shed=%d quarantined=%d checkpoints=%d last_checkpoint=%s",
		len(s.Streams), complete, s.ActiveConns, records, snaps, events,
		resyncs, skipped, bad, s.Drops, s.Panics+s.ConnPanics,
		shed, s.Quarantined, s.Checkpoints, lastCkpt)
}

// maxControlRequest bounds a control request in bytes. The only request
// is "status\n"; a client that sends more without a newline is cut off
// instead of being buffered.
const maxControlRequest = 64

// ListenControl serves status queries on a unix socket: one line of
// request ("status"), one JSON document of response.
func (d *Daemon) ListenControl(path string) error {
	ln, err := net.Listen("unix", path)
	if err != nil {
		return err
	}
	d.ctl = ln
	d.ctlWG.Add(1)
	go func() {
		defer d.ctlWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			d.ctlWG.Add(1)
			go func() {
				defer d.ctlWG.Done()
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				line, err := bufio.NewReader(io.LimitReader(conn, maxControlRequest)).ReadString('\n')
				if err != nil {
					return
				}
				if strings.TrimSpace(line) == "status" {
					json.NewEncoder(conn).Encode(d.Status())
				}
			}()
		}
	}()
	return nil
}

// QueryStatus asks a running daemon's control socket for its status.
func QueryStatus(path string) (Status, error) {
	conn, err := net.DialTimeout("unix", path, 5*time.Second)
	if err != nil {
		return Status{}, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintln(conn, "status"); err != nil {
		return Status{}, err
	}
	var s Status
	if err := json.NewDecoder(conn).Decode(&s); err != nil {
		return Status{}, fmt.Errorf("pipeline: decoding status: %w", err)
	}
	return s, nil
}
