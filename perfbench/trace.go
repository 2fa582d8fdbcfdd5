package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one traced call into a layer, recorded from the benchmark's
// side of the boundary. Start and End are nanoseconds since the tracer
// was created; Parent is 0 for a root span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Layer is the span name up to its first dot: "netsim.audible" belongs
// to the netsim layer.
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so workloads call it
// unconditionally.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span under parent (0 for a root) and returns its id.
func (t *Tracer) Start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// End closes the span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// Do runs fn inside a span named name under parent, passing fn the new
// span's id so it can open children.
func (t *Tracer) Do(name string, parent int, fn func(id int)) {
	id := t.Start(name, parent)
	defer t.End(id)
	fn(id)
}

// Spans returns a copy of the closed spans in start order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes returns each span's self time in nanoseconds, keyed by span
// id: its duration minus the part of its interval that its children
// cover. Children may nest further and may overlap each other (feeders
// run concurrently under one ingest span), so the covered part is the
// length of the union of the children's intervals, clipped to the
// parent's interval.
func SelfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p Span, kids []Span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// LayerSelf sums self time per layer, in nanoseconds.
func LayerSelf(spans []Span) map[string]int64 {
	self := SelfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Layer()] += self[s.ID]
	}
	return out
}

// WriteSpans writes one JSON object per span.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Subtree returns the span root and its descendants.
func Subtree(spans []Span, root int) []Span {
	in := map[int]bool{root: true}
	var out []Span
	// Spans start after their parents, so one pass in start order sees
	// every parent before its children.
	for _, s := range spans {
		if s.ID == root || in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// PrintLayerTable prints self time per layer, largest first.
func PrintLayerTable(w io.Writer, spans []Span) {
	per := LayerSelf(spans)
	layers := make([]string, 0, len(per))
	var total int64
	for l, ns := range per {
		layers = append(layers, l)
		total += ns
	}
	sort.Slice(layers, func(i, j int) bool {
		if per[layers[i]] != per[layers[j]] {
			return per[layers[i]] > per[layers[j]]
		}
		return layers[i] < layers[j]
	})
	fmt.Fprintf(w, "%-12s %12s %7s\n", "layer", "self_ms", "share")
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(per[l]) / float64(total)
		}
		fmt.Fprintf(w, "%-12s %12.3f %6.1f%%\n", l, float64(per[l])/1e6, 100*share)
	}
	fmt.Fprintf(w, "%-12s %12.3f\n", "total", float64(total)/1e6)
}
