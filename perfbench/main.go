// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the program's public APIs for a fixed time, checks
// every output, and prints one JSON result line:
//
//	perfbench --workload d2-crawl --seed 1 --seconds 10 --trace 0
//	perfbench compare OLD_DIR NEW_DIR
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload untraced and traced, adds the layer suite, and
// reports the per-layer metrics, writes the spans as JSON lines, and
// prints self time per layer with the tracing overhead. README.md maps
// each metric to its layer and workload.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// A run builds its inputs at least minSetupReps times and, while that
// takes less than setupWindow, up to maxSetupReps times; setup_s is the
// median.
const (
	minSetupReps = 3
	maxSetupReps = 200
	setupWindow  = 500 * time.Millisecond
)

// env is what a workload runs against.
type env struct {
	ctx     context.Context
	seed    int64
	workers int    // worker threads and connections: nproc
	dir     string // scratch space for outputs, inside the checkout
	// rss samples resident memory in untraced runs (nil when traced).
	rss *rssSampler
}

// opResult is one checked execution of a workload's timed part.
type opResult struct {
	wall      float64   // s: first call into the program → output on disk and checked
	records   float64   // records produced by the producing stage
	produceS  float64   // s spent in the producing stage
	drain     float64   // s to put the output on disk
	rss       []float64 // MB: peak resident memory per campaign (d1) or of the op
	attempted int       // checked operations: campaigns, carriers, or streams
	failed    int
	problems  []string
	// layer holds the per-layer metrics this op measured itself; only
	// traced ops fill it.
	layer Metrics
}

// workload is one benchmark workload.
type workload interface {
	// setup builds the workload's inputs from the seed.
	setup(e *env) error
	// op runs the timed part once and checks its output. tr is nil in
	// untraced runs; root is the span the op's spans hang under.
	op(e *env, tr *Tracer, root int) (opResult, error)
	// inputs reports the input sizes for the result stamp.
	inputs() map[string]float64
}

func newWorkload(name string) (workload, bool) {
	switch name {
	case "d1-campaign":
		return &d1Workload{scale: d1Scale, band: true}, true
	case "d2-crawl":
		return &d2Workload{scale: d2Scale}, true
	case "ingest":
		return &ingestWorkload{}, true
	}
	return nil, false
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   Metrics `json:"metrics"`
}

// resultFile is what a run keeps on disk for compare mode: the printed
// result, every sample behind it, and the stamp.
type resultFile struct {
	Stamp    Stamp                `json:"stamp"`
	Result   result               `json:"result"`
	Samples  map[string][]float64 `json:"samples"`
	Problems []string             `json:"problems,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload: d1-campaign, d2-crawl, or ingest")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for results, spans, and scratch files")
	)
	flag.Parse()
	w, ok := newWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload d1-campaign|d2-crawl|ingest, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, w, *name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, w workload, name string, seed int64, seconds int, traced bool, out string) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	runID := fmt.Sprintf("%s-seed%d-trace%d-%d", name, seed, btoi(traced), time.Now().UnixNano())
	e := &env{ctx: ctx, seed: seed, workers: runtime.NumCPU(), dir: filepath.Join(out, "work", runID)}
	defer os.RemoveAll(e.dir)

	var setupS []float64
	for start := time.Now(); len(setupS) < minSetupReps || (len(setupS) < maxSetupReps && time.Since(start) < setupWindow); {
		t := time.Now()
		if err := w.setup(e); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}

	rf := resultFile{Samples: map[string][]float64{"setup_s": setupS}}
	m := Metrics{}
	m.set("setup_s", median(setupS))
	var res result
	if traced {
		res, err = runTraced(e, w, name, &rf, filepath.Join(out, runID+".spans.jsonl"))
	} else {
		res, err = runUntraced(e, w, seconds, m, &rf)
	}
	if err != nil {
		return err
	}

	rf.Stamp = newStamp(root, name, seed, seconds, traced)
	rf.Stamp.Inputs = w.inputs()
	rf.Result = res
	if err := writeJSON(filepath.Join(out, runID+".json"), rf); err != nil {
		return err
	}
	for _, p := range rf.Problems {
		fmt.Fprintln(os.Stderr, "check:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runUntraced repeats the op until seconds have passed (at least once)
// and reports medians over the ops.
func runUntraced(e *env, w workload, seconds int, m Metrics, rf *resultFile) (result, error) {
	res := result{Correct: true}
	var wall, rate, drain, rss []float64
	e.rss = startRSS()
	defer func() { e.rss.close(); e.rss = nil }()
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(wall) == 0 || time.Now().Before(deadline) {
		if err := e.ctx.Err(); err != nil {
			return res, err
		}
		r, err := cleanOp(e, w)
		if err != nil {
			return res, err
		}
		if len(r.rss) == 0 {
			r.rss = []float64{e.rss.cut()}
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		rf.Problems = append(rf.Problems, r.problems...)
		wall = append(wall, r.wall)
		rate = append(rate, r.records/r.produceS)
		drain = append(drain, r.drain)
		rss = append(rss, r.rss...)
	}
	res.Correct = res.Failed == 0 && len(rf.Problems) == 0
	m.set("wall_s", median(wall))
	m.set("records_per_s", median(rate))
	m.set("drain_s", median(drain))
	m.set("peak_rss_mb", median(rss))
	rf.Samples["wall_s"], rf.Samples["records_per_s"], rf.Samples["drain_s"], rf.Samples["peak_rss_mb"] = wall, rate, drain, rss
	res.Metrics = m.only(endToEnd)
	if missing := res.Metrics.missing(endToEnd); len(missing) > 0 {
		return res, fmt.Errorf("metrics not measured: %v", missing)
	}
	return res, nil
}

// runTraced runs the op untraced and then traced; the difference in
// wall_s is the tracing overhead. Untraced ops repeat until two have run
// or 20 s have passed, so the baseline is a warm op where ops are short.
// Then the layer suite measures the layers the op does not call itself.
func runTraced(e *env, w workload, name string, rf *resultFile, spansPath string) (result, error) {
	res := result{Correct: true}
	count := func(r opResult) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		rf.Problems = append(rf.Problems, r.problems...)
	}
	var plain opResult
	for start, n := time.Now(), 0; n < 2 && (n == 0 || time.Since(start) < 20*time.Second); n++ {
		r, err := cleanOp(e, w)
		if err != nil {
			return res, err
		}
		count(r)
		plain = r
	}
	runtime.GC()
	tr := NewTracer()
	opRoot := tr.Start("bench."+name, 0)
	before := readRuntime()
	traced, err := w.op(e, tr, opRoot)
	after := readRuntime()
	tr.End(opRoot)
	if err != nil {
		return res, err
	}
	count(traced)
	overhead := traced.wall - plain.wall
	layer := Metrics{}
	for k, v := range traced.layer {
		layer[k] = v
	}
	layer.set("runtime.alloc_mb", (after.allocBytes-before.allocBytes)/1e6)
	layer.set("runtime.gc_cpu_share", safeDiv(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))

	suiteRoot := tr.Start("bench.suite", 0)
	sr, err := runSuite(e, tr, suiteRoot, layer)
	tr.End(suiteRoot)
	if err != nil {
		return res, err
	}
	count(sr)
	res.Correct = res.Failed == 0 && len(rf.Problems) == 0

	spans := tr.Spans()
	if err := WriteSpans(spansPath, spans); err != nil {
		return res, err
	}
	fmt.Fprintf(os.Stderr, "%s: spans in %s\n\n%s traced op, self time per layer:\n", name, spansPath, name)
	PrintLayerTable(os.Stderr, Subtree(spans, opRoot))
	fmt.Fprintf(os.Stderr, "\nlayer suite, self time per layer:\n")
	PrintLayerTable(os.Stderr, Subtree(spans, suiteRoot))
	fmt.Fprintf(os.Stderr, "\ntracing overhead: traced wall_s %.4f - untraced wall_s %.4f = %+.4f s\n", traced.wall, plain.wall, overhead)
	rf.Samples["wall_s_untraced"] = []float64{plain.wall}
	rf.Samples["wall_s_traced"] = []float64{traced.wall}
	rf.Samples["tracing_overhead_s"] = []float64{overhead}
	for l, ns := range LayerSelf(Subtree(spans, opRoot)) {
		rf.Samples["op_self_s."+l] = []float64{float64(ns) / 1e9}
	}
	for l, ns := range LayerSelf(Subtree(spans, suiteRoot)) {
		rf.Samples["suite_self_s."+l] = []float64{float64(ns) / 1e9}
	}
	res.Metrics = layer.only(perLayer)
	if missing := res.Metrics.missing(perLayer); len(missing) > 0 {
		return res, fmt.Errorf("metrics not measured: %v", missing)
	}
	return res, nil
}

// cleanOp runs one untraced op on a freshly collected heap, so garbage
// left by set-up or the previous op does not land on this op's clock or
// its memory peak.
func cleanOp(e *env, w workload) (opResult, error) {
	runtime.GC()
	e.rss.cut()
	return w.op(e, nil, 0)
}

// runtimeSample is a reading of the runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// drainTime times repeated writes of a fresh copy of an output file into
// dir, at least 5 and for at least window, and returns the 10th
// percentile in seconds: the write's own cost, like timeit's minimum. On
// a shared host short single-threaded work alternates between a fast and
// a slow mode about 2x apart over seconds, so a window's median or mean
// follows the neighbours' load (±15 % between runs) while its fastest
// tenth holds within a few percent. The writes start from a collected
// heap. Each copy gets a new name and is removed untimed: overwriting one
// file would make ext4 flush the replaced data on close and time the
// disk instead.
func drainTime(dir string, window time.Duration, write func(path string) error) (float64, error) {
	runtime.GC()
	var ts []float64
	start := time.Now()
	for len(ts) < 5 || (time.Since(start) < window && len(ts) < 10000) {
		path := filepath.Join(dir, fmt.Sprintf("drain%d", len(ts)))
		t := time.Now()
		if err := write(path); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t).Seconds())
		if err := os.Remove(path); err != nil {
			return 0, err
		}
	}
	sort.Float64s(ts)
	return ts[(len(ts)-1)/10], nil
}

// writeFile creates path and writes it through a buffered writer.
func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := fill(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// loadResults reads every result file in dir, in name order.
func loadResults(dir string) ([]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []resultFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	return out, nil
}
