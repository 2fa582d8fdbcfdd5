package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func span(id, parent int, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeNested(t *testing.T) {
	spans := []Span{
		span(1, 0, "bench.root", 0, 100),
		span(2, 1, "netsim.a", 10, 40),
		span(3, 2, "radio.b", 15, 25),
		span(4, 1, "geo.c", 50, 60),
	}
	self := SelfTimes(spans)
	want := map[int]int64{1: 60, 2: 20, 3: 10, 4: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Concurrent children cover [10,70] once, not twice; a child running
	// past its parent's end counts only up to the parent's end.
	spans := []Span{
		span(1, 0, "pipeline.ingest", 0, 100),
		span(2, 1, "feeder.feed", 10, 50),
		span(3, 1, "feeder.feed", 30, 70),
		span(4, 1, "feeder.feed", 40, 45),
		span(5, 1, "feeder.feed", 90, 120),
	}
	self := SelfTimes(spans)
	if self[1] != 30 {
		t.Errorf("parent self %d, want 30", self[1])
	}
	layers := LayerSelf(spans)
	if layers["pipeline"] != 30 || layers["feeder"] != 40+40+5+30 {
		t.Errorf("layer self times %v", layers)
	}
}

func TestTracerRecordsAndWritesSpans(t *testing.T) {
	tr := NewTracer()
	tr.Do("bench.root", 0, func(root int) {
		tr.Do("sib.scan", root, func(int) {})
		open := tr.Start("crawler.parse", root)
		_ = open // never ended: not reported
	})
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "bench.root" || spans[1].Parent != spans[0].ID {
		t.Fatalf("spans %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := WriteSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		var got map[string]any
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"id", "parent", "name", "start_ns", "end_ns"} {
			if _, ok := got[k]; !ok {
				t.Errorf("line %d lacks %q", n, k)
			}
		}
		n++
	}
	if n != 2 {
		t.Fatalf("%d lines, want 2", n)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	ran := false
	tr.Do("x.y", tr.Start("a.b", 0), func(id int) { ran = id == 0 })
	if !ran || tr.Spans() != nil {
		t.Fatal("nil tracer must run the function and record nothing")
	}
}
