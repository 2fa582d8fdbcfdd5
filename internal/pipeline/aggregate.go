package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"mmlab/internal/config"
	"mmlab/internal/crawler"
	"mmlab/internal/dataset"
)

// StreamResult is everything the pipeline extracted from one stream.
type StreamResult struct {
	Carrier   string
	Stream    string
	Snapshots []crawler.ConfigSnapshot
	Events    []crawler.HandoffEvent
	Stats     crawler.ParseStats
	Complete  bool // clean end frame seen

	// Seq is the stream's applied high-water mark: how many of its
	// records the data above accounts for. Resume is the parser's
	// cross-record state at exactly that point (nil once the stream is
	// complete, or before anything was routed). Together they make a
	// periodic checkpoint resumable: a restarted daemon primes the
	// parser from Resume and asks the feeder to replay from Seq.
	Seq    uint64
	Resume *crawler.ParserResume
}

// aggregator owns the per-stream results. It is written only by the
// aggregate-stage goroutine; the mutex exists for status queries and the
// final drain read.
type aggregator struct {
	mu      sync.Mutex
	streams map[*streamState]*StreamResult
}

func newAggregator() *aggregator {
	return &aggregator{streams: map[*streamState]*StreamResult{}}
}

func (a *aggregator) apply(u update) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.streams[u.st]
	if r == nil {
		r = &StreamResult{Carrier: u.st.key.carrier, Stream: u.st.key.stream}
		a.streams[u.st] = r
	}
	r.Snapshots = append(r.Snapshots, u.snaps...)
	r.Events = append(r.Events, u.events...)
	r.Stats = u.stats
	r.Complete = r.Complete || u.end
	if u.seq >= r.Seq {
		r.Seq = u.seq
		r.Resume = u.resume // immutable once routed; shared, never mutated
	}
	if r.Complete {
		r.Resume = nil
	}
}

// seed pre-loads one stream's restored result (daemon restart path).
func (a *aggregator) seed(st *streamState, r *StreamResult) {
	a.mu.Lock()
	a.streams[st] = r
	a.mu.Unlock()
}

// snapshot returns consistent copies of every stream result without
// pausing ingest: the struct is copied under the lock and the data
// slices are capped, so the aggregate goroutine's later appends
// reallocate instead of mutating what the checkpoint is encoding.
// Resume states are immutable once routed, so sharing them is safe.
func (a *aggregator) snapshot() []*StreamResult {
	a.mu.Lock()
	out := make([]*StreamResult, 0, len(a.streams))
	for _, r := range a.streams {
		cp := *r
		cp.Snapshots = r.Snapshots[:len(r.Snapshots):len(r.Snapshots)]
		cp.Events = r.Events[:len(r.Events):len(r.Events)]
		out = append(out, &cp)
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Carrier != out[j].Carrier {
			return out[i].Carrier < out[j].Carrier
		}
		return out[i].Stream < out[j].Stream
	})
	return out
}

// results returns the stream results sorted by (carrier, stream).
func (a *aggregator) results() []*StreamResult {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*StreamResult, 0, len(a.streams))
	for _, r := range a.streams {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Carrier != out[j].Carrier {
			return out[i].Carrier < out[j].Carrier
		}
		return out[i].Stream < out[j].Stream
	})
	return out
}

// resultFor looks one stream's live counters up for status.
func (a *aggregator) resultFor(st *streamState) (StreamResult, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	r, ok := a.streams[st]
	if !ok {
		return StreamResult{}, false
	}
	cp := *r
	cp.Snapshots = r.Snapshots[:len(r.Snapshots):len(r.Snapshots)]
	cp.Events = r.Events[:len(r.Events):len(r.Events)]
	return cp, true
}

// Checkpoint is the durable form of the daemon's live state: every
// stream's extracted data plus the per-carrier catalogs and D2
// aggregates derived from it. It is a pure function of the per-stream
// results in (carrier, stream) order, so two ingests that recovered the
// same records — no matter how the transport mangled, stalled, or
// reconnected them — checkpoint byte-identically, and both match a batch
// parse of the same captures.
type Checkpoint struct {
	Streams  []StreamCheckpoint `json:"streams"`
	Carriers []CarrierAggregate `json:"carriers"`

	// Resume carries what a restarted daemon needs to continue ingest
	// exactly where this checkpoint left off: one entry per stream with
	// its applied record high-water mark and, for incomplete streams,
	// the parser's pending cross-record state. Periodic checkpoints
	// carry it; the final drain checkpoint omits it (a drained run is
	// sealed, and the drain file stays byte-identical to the batch
	// reference, pipeline.Reference).
	Resume []StreamResume `json:"resume,omitempty"`
}

// StreamResume is one stream's entry in a checkpoint's resume section.
type StreamResume struct {
	Carrier  string                `json:"carrier"`
	Stream   string                `json:"stream"`
	Seq      uint64                `json:"seq"`
	Complete bool                  `json:"complete,omitempty"`
	Parser   *crawler.ParserResume `json:"parser,omitempty"`
}

// StreamCheckpoint is one stream's extracted data.
type StreamCheckpoint struct {
	Carrier   string                   `json:"carrier"`
	Stream    string                   `json:"stream"`
	Snapshots []crawler.ConfigSnapshot `json:"snapshots"`
	Events    []crawler.HandoffEvent   `json:"events,omitempty"`
}

// CarrierAggregate is one carrier's live catalog and D2 rollup.
type CarrierAggregate struct {
	Carrier      string      `json:"carrier"`
	Streams      int         `json:"streams"`
	Snapshots    int         `json:"snapshots"`
	Events       int         `json:"events"`
	Cells        int         `json:"cells"`
	ParamSamples int         `json:"paramSamples"`
	Catalog      []CellEntry `json:"catalog"`
}

// CellEntry is one cell's entry in a carrier's live config catalog: how
// often it was observed and the parameters of its latest observation.
type CellEntry struct {
	Identity   config.CellIdentity  `json:"identity"`
	Rounds     int                  `json:"rounds"`
	LastTimeMs uint64               `json:"lastTimeMs"`
	Params     map[string][]float64 `json:"params"`
}

// BuildCheckpoint derives the checkpoint from per-stream results. The
// carrier catalog replays streams in sorted order, each stream's
// snapshots in extraction order; a snapshot becomes the cell's "latest"
// when its timestamp is not older than the current one.
func BuildCheckpoint(results []*StreamResult) *Checkpoint {
	cp := &Checkpoint{}
	type carrierAcc struct {
		agg   CarrierAggregate
		cells map[uint32]*CellEntry
		last  map[uint32]*crawler.ConfigSnapshot
	}
	accs := map[string]*carrierAcc{}
	var order []string
	for _, r := range results {
		// The data is shared, not copied: capped, so a later append to
		// the result reallocates instead of writing into the checkpoint.
		// Every caller hands over results no one mutates in place: the
		// drain builds after the aggregate stage has exited, the periodic
		// path passes the aggregator's capped snapshot, and Reference
		// owns its results.
		sc := StreamCheckpoint{
			Carrier:   r.Carrier,
			Stream:    r.Stream,
			Snapshots: r.Snapshots[:len(r.Snapshots):len(r.Snapshots)],
			Events:    r.Events[:len(r.Events):len(r.Events)],
		}
		if sc.Snapshots == nil {
			sc.Snapshots = []crawler.ConfigSnapshot{} // encodes as [], not null
		}
		cp.Streams = append(cp.Streams, sc)

		acc := accs[r.Carrier]
		if acc == nil {
			acc = &carrierAcc{
				agg:   CarrierAggregate{Carrier: r.Carrier},
				cells: map[uint32]*CellEntry{},
				last:  map[uint32]*crawler.ConfigSnapshot{},
			}
			accs[r.Carrier] = acc
			order = append(order, r.Carrier)
		}
		acc.agg.Streams++
		acc.agg.Events += len(r.Events)
		for i := range r.Snapshots {
			s := &r.Snapshots[i]
			acc.agg.Snapshots++
			id := s.Identity.CellID
			e := acc.cells[id]
			if e == nil {
				e = &CellEntry{Identity: s.Identity}
				acc.cells[id] = e
			}
			e.Rounds++
			if s.TimeMs >= e.LastTimeMs {
				e.LastTimeMs = s.TimeMs
				acc.last[id] = s
			}
		}
	}
	sort.Strings(order)
	for _, name := range order {
		acc := accs[name]
		ids := make([]uint32, 0, len(acc.cells))
		for id := range acc.cells {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			e := acc.cells[id]
			e.Params = dataset.SnapshotParams(&acc.last[id].Config)
			for _, vs := range e.Params {
				acc.agg.ParamSamples += len(vs)
			}
			acc.agg.Catalog = append(acc.agg.Catalog, *e)
		}
		acc.agg.Cells = len(ids)
		cp.Carriers = append(cp.Carriers, acc.agg)
	}
	return cp
}

// WriteFile atomically writes the checkpoint into dir as checkpoint.json,
// encoding straight into a temp file. The tmp+rename dance means a crash
// or an encode error at any instant leaves either the previous
// checkpoint or this one, never a torn file.
func (cp *Checkpoint) WriteFile(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, ".checkpoint.json.tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = cp.Encode(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, "checkpoint.json"))
	}
	if err != nil {
		os.Remove(tmp) // the previous checkpoint.json stays as it was
	}
	return err
}

// LoadCheckpoint reads dir/checkpoint.json. A missing file is not an
// error: it returns (nil, nil), meaning a fresh start.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("pipeline: decoding checkpoint: %w", err)
	}
	return &cp, nil
}

// resumeSection builds the resume entries for a periodic checkpoint from
// an aggregator snapshot (already in sorted order).
func resumeSection(results []*StreamResult) []StreamResume {
	out := make([]StreamResume, 0, len(results))
	for _, r := range results {
		sr := StreamResume{Carrier: r.Carrier, Stream: r.Stream, Seq: r.Seq, Complete: r.Complete}
		if !r.Complete {
			sr.Parser = r.Resume
		}
		out = append(out, sr)
	}
	return out
}

// FeedInput is one stream's identity and capture bytes — the unit both
// the feeder fleet and the batch reference consume.
type FeedInput struct {
	Carrier string
	Stream  string
	Data    []byte
}

// Reference builds the checkpoint a daemon ingest of the given captures
// must converge to, by running the batch parser over each stream — the
// ground truth the soak tests compare drained daemons against.
func Reference(inputs []FeedInput) (*Checkpoint, error) {
	results := make([]*StreamResult, 0, len(inputs))
	for _, in := range inputs {
		snaps, events, stats, err := crawler.ParseDiagOpts(bytes.NewReader(in.Data), crawler.ParseOptions{})
		if err != nil {
			return nil, fmt.Errorf("pipeline: reference parse %s/%s: %w", in.Carrier, in.Stream, err)
		}
		results = append(results, &StreamResult{
			Carrier: in.Carrier, Stream: in.Stream,
			Snapshots: snaps, Events: events, Stats: stats, Complete: true,
		})
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Carrier != results[j].Carrier {
			return results[i].Carrier < results[j].Carrier
		}
		return results[i].Stream < results[j].Stream
	})
	return BuildCheckpoint(results), nil
}
