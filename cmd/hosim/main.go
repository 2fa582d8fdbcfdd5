// Command hosim runs the Type-II drive campaigns that build dataset D1:
// active-state drives with speedtest / constant-rate iPerf / ping and
// idle-state drives across the US carriers and test cities, recording
// every handoff instance as a JSON line.
//
// Usage:
//
//	hosim [-scale 1.0] [-seed 7] [-workers N] [-fault.* ...] [-o d1.jsonl]
//
// Scale 1.0 reproduces the paper's dataset size (14,510 active + 4,263
// idle handoffs) and takes several minutes; use -scale 0.05 for a quick
// run. The eight carrier×state campaigns share one pool of -workers
// parallel drive workers (default: all CPUs), and a drive whose campaign
// has already met its quota is skipped; the dataset is byte-identical
// for every worker count. The -fault.* flags (see internal/fault) inject
// signaling-plane faults into the active drives; all-zero (the default)
// reproduces the historical fault-free dataset exactly. Every drive world
// uses the one radio model of internal/radio (COST-231 Hata path loss,
// correlated shadowing) on the standard 7×4.5 km arena.
// Ctrl-C cancels the campaign and removes the partial output file.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"

	"mmlab/internal/dataset"
	"mmlab/internal/experiment"
	"mmlab/internal/fault"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hosim: ")
	var (
		scale   = flag.Float64("scale", 1.0, "fraction of the paper's 18.7k-handoff campaign")
		seed    = flag.Int64("seed", 7, "campaign seed")
		workers = flag.Int("workers", runtime.NumCPU(), "parallel drive workers (output is identical for any value)")
		out     = flag.String("o", "d1.jsonl", "output path")
		format  = flag.String("format", "jsonl", "output format: jsonl or csv")
	)
	rates := fault.RegisterFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	d1, err := experiment.BuildD1(ctx, experiment.D1Options{Scale: *scale, Seed: *seed, Workers: *workers, Faults: *rates})
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Fatal("interrupted; no output written")
		}
		log.Fatal(err)
	}
	fh, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	switch *format {
	case "jsonl":
		err = dataset.WriteD1(fh, d1.Records)
	case "csv":
		err = dataset.WriteD1CSV(fh, d1.Records)
	default:
		fh.Close()
		os.Remove(*out)
		log.Fatalf("unknown format %q", *format)
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(*out)
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d handoff instances (%d active, %d idle)\n",
		*out, len(d1.Records), len(d1.Active()), len(d1.Idle()))
}
