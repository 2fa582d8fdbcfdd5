package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mmlab/internal/analysis"
	"mmlab/internal/carrier"
	"mmlab/internal/crawler"
	"mmlab/internal/dataset"
)

// d2Scale sizes the global crawl: about 4.6k snapshots over 30 carriers.
const d2Scale = 0.05

// d2Workload is the Q1 path behind genfleet plus figures: crawl every
// carrier, write D2, read it back, and compute every D2 figure.
type d2Workload struct {
	scale float64
	// carriers restricts the crawl for the layer suite; nil crawls every
	// carrier with crawler.BuildGlobalD2.
	carriers []string

	// sites is each carrier's fleet size, the reference for the check.
	sites     map[string]int
	snapshots int
	d2Bytes   int
}

func (w *d2Workload) setup(e *env) error {
	acrs := w.carriers
	if acrs == nil {
		for _, c := range carrier.All() {
			acrs = append(acrs, c.Acronym)
		}
	}
	w.sites = map[string]int{}
	for _, acr := range acrs {
		f, err := carrier.BuildFleet(acr, w.scale)
		if err != nil {
			return err
		}
		w.sites[acr] = len(f.Sites)
	}
	return os.MkdirAll(e.dir, 0o755)
}

func (w *d2Workload) inputs() map[string]float64 {
	cells := 0
	for _, n := range w.sites {
		cells += n
	}
	return map[string]float64{
		"scale": w.scale, "carriers": float64(len(w.sites)), "cells": float64(cells),
		"snapshots": float64(w.snapshots), "d2_bytes": float64(w.d2Bytes),
	}
}

func (w *d2Workload) op(e *env, tr *Tracer, root int) (opResult, error) {
	res := opResult{attempted: len(w.sites)}
	out := filepath.Join(e.dir, "d2.jsonl")
	defer os.Remove(out) // the next op writes a fresh file
	start := time.Now()
	var d2 *dataset.D2
	var err error
	if w.carriers == nil {
		tr.Do("crawler.build_global_d2", root, func(int) { d2, err = crawler.BuildGlobalD2(e.ctx, w.scale, e.seed, e.workers) })
	} else {
		tr.Do("crawler.build_d2_carriers", root, func(int) { d2, err = crawler.BuildD2Carriers(e.ctx, w.carriers, w.scale, e.seed, e.workers) })
	}
	produced := time.Since(start).Seconds()
	if err != nil {
		return res, fmt.Errorf("d2: crawl: %w", err)
	}

	t := time.Now()
	tr.Do("dataset.write_d2", root, func(int) {
		err = writeFile(out, func(f *bufio.Writer) error { return dataset.WriteD2(f, d2.Snapshots) })
	})
	writeS := time.Since(t).Seconds()
	if err != nil {
		return res, fmt.Errorf("d2: write: %w", err)
	}
	t = time.Now()
	var written []byte
	var read *dataset.D2
	tr.Do("dataset.read_d2", root, func(int) {
		if written, err = os.ReadFile(out); err == nil {
			read, err = dataset.ReadD2(bytes.NewReader(written))
		}
	})
	readS := time.Since(t).Seconds()
	if err != nil {
		return res, fmt.Errorf("d2: read: %w", err)
	}
	t = time.Now()
	var figs string
	tr.Do("analysis.d2_figs", root, func(int) { figs = d2Figures(read) })
	figsMs := msSince(t)
	if err := os.WriteFile(filepath.Join(e.dir, "d2_figures.txt"), []byte(figs), 0o644); err != nil {
		return res, fmt.Errorf("d2: figures: %w", err)
	}
	tr.Do("bench.check", root, func(int) { res.failed, res.problems = checkD2(d2, w.sites, written, read) })
	res.wall = time.Since(start).Seconds()
	res.records = float64(len(d2.Snapshots))
	res.produceS = produced
	w.snapshots, w.d2Bytes = len(d2.Snapshots), len(written)
	if tr != nil { // a traced run reports per-layer metrics only
		mb := float64(len(written)) / 1e6
		res.layer = Metrics{}
		res.layer.set("dataset.write_d2_mb_s", mb/writeS)
		res.layer.set("dataset.read_d2_mb_s", mb/readS)
		res.layer.set("dataset.d2_bytes", float64(len(written)))
		res.layer.set("analysis.d2_figs_ms", figsMs)
		return res, nil
	}
	res.drain, err = drainTime(e.dir, time.Second, func(path string) error {
		return writeFile(path, func(f *bufio.Writer) error { return dataset.WriteD2(f, d2.Snapshots) })
	})
	if err != nil {
		return res, fmt.Errorf("d2: drain: %w", err)
	}
	return res, nil
}

// mainCarriers are the nine carriers of the paper's cross-carrier panels.
var mainCarriers = []string{"A", "T", "S", "V", "CM", "SK", "MO", "CH", "CW"}

// d2Figures renders every D2 table and figure with the figures command's
// arguments.
func d2Figures(d2 *dataset.D2) string {
	var b strings.Builder
	b.WriteString(analysis.RenderTable4(analysis.Table4(d2)))
	b.WriteString(analysis.RenderFig11(analysis.Fig11(d2, "")))
	b.WriteString(analysis.RenderFig12(analysis.Fig12(d2)))
	b.WriteString(analysis.RenderFig13(analysis.Fig13(d2, 20)))
	b.WriteString(analysis.RenderParamDists("Fig 14", analysis.Fig14(d2, "A")))
	b.WriteString(analysis.RenderCrossCarrier("Fig 15", analysis.Fig15(d2, mainCarriers)))
	b.WriteString(analysis.RenderParamDists("Fig 16", analysis.Fig16(d2, "A")))
	b.WriteString(analysis.RenderCrossCarrier("Fig 17", analysis.Fig17(d2, mainCarriers)))
	b.WriteString(analysis.RenderFig18(analysis.Fig18(d2, "A")))
	b.WriteString(analysis.RenderFig19(analysis.Fig19(d2, "A"), "A"))
	b.WriteString(analysis.RenderFig20(analysis.Fig20(d2, []string{"A", "T", "V", "S"}, []string{"C1", "C2", "C3", "C4", "C5"})))
	var rs []analysis.Fig21Result
	for _, acr := range []string{"A", "V", "S", "T"} {
		rs = append(rs, analysis.Fig21(d2, acr, "C3", []float64{0.5, 1, 2}))
	}
	b.WriteString(analysis.RenderFig21(rs))
	b.WriteString(analysis.RenderFig22(analysis.Fig22(d2)))
	return b.String()
}
