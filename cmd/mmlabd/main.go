// Command mmlabd is the streaming ingest daemon: the long-running
// counterpart to `mmlab collect | mmlab parse`. It accepts many
// concurrent diag streams over TCP and unix sockets, decodes them with
// the resynchronizing scanner, extracts configuration snapshots and
// handoff events through a bounded backpressured pipeline, and keeps
// live per-carrier config catalogs and aggregates that a status query
// can inspect while ingest continues. SIGTERM/SIGINT triggers a
// graceful drain: stop accepting, flush every stage, checkpoint to
// disk, exit 0. A second signal mid-drain aborts the drain and exits
// nonzero immediately.
//
// Subcommands:
//
//	mmlabd serve [-tcp :7733] [-unix path] [-control path] [-checkpoint dir]
//	       [-checkpoint.every 0] [-idle 30s] [-drain 1m]
//	    Run the daemon until a signal, then drain and checkpoint. A full
//	    queue backpressures the senders; no update is ever dropped. A
//	    stream whose extraction panics is quarantined for good; the
//	    others carry on. With
//	    -checkpoint.every > 0 a resumable checkpoint is also written
//	    periodically, a restart resumes the previous one, and feeders
//	    receive durable acks. Unix socket files left behind by a
//	    crashed daemon are removed at startup (live ones are not).
//
//	mmlabd status [-control path] [-format summary|json]
//	    Query a running daemon's control socket: per-stream scan and
//	    parse statistics, queue depths, panic/quarantine counters,
//	    and the last periodic checkpoint time.
//
//	mmlabd feed -i diag.bin [-tcp addr|-unix path] [-carrier A] [-stream s0]
//	       [-seed 1] [-retries N] [-backoff 10ms] [-maxbackoff 1s]
//	       [-waitdurable] [-fault.disconnect P] [-fault.corrupt P]
//	       [-fault.garbage P] [-fault.stall P] [-fault.stallms N]
//	    Replay a collected capture into a daemon through the seeded
//	    lossless fault model (for soak and smoke testing), resuming from
//	    the daemon's acked position across daemon restarts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mmlab/internal/pipeline"
	"mmlab/internal/pipeline/feeder"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mmlabd: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "status":
		statusCmd(os.Args[2:])
	case "feed":
		feed(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mmlabd serve|status|feed [flags]")
	os.Exit(2)
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		tcp        = fs.String("tcp", ":7733", "TCP ingest address (empty to disable)")
		unix       = fs.String("unix", "", "unix-socket ingest path (empty to disable)")
		control    = fs.String("control", "", "control socket path for `mmlabd status` (empty to disable)")
		checkpoint = fs.String("checkpoint", "", "directory receiving checkpoint.json on drain")
		ckptEvery  = fs.Duration("checkpoint.every", 0, "periodic checkpoint interval (0 = drain-only); requires -checkpoint")
		idle       = fs.Duration("idle", 30*time.Second, "per-connection idle timeout")
		drainT     = fs.Duration("drain", time.Minute, "graceful drain deadline")
	)
	fs.Parse(args)
	if *ckptEvery > 0 && *checkpoint == "" {
		log.Fatal("serve: -checkpoint.every requires -checkpoint")
	}

	d := pipeline.NewDaemon(pipeline.Config{
		IdleTimeout:     *idle,
		CheckpointDir:   *checkpoint,
		CheckpointEvery: *ckptEvery,
	})
	if n, err := d.Restore(); err != nil {
		log.Fatalf("serve: restoring checkpoint: %v", err)
	} else if n > 0 {
		log.Printf("restored %d streams from %s/checkpoint.json", n, *checkpoint)
	}
	if *tcp != "" {
		addr, err := d.ListenTCP(*tcp)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("ingest on tcp %s", addr)
	}
	if *unix != "" {
		removeStaleSocket(*unix)
		if err := d.ListenUnix(*unix); err != nil {
			log.Fatal(err)
		}
		log.Printf("ingest on unix %s", *unix)
	}
	if *tcp == "" && *unix == "" {
		log.Fatal("serve: no ingest listener (-tcp and -unix both empty)")
	}
	if *control != "" {
		removeStaleSocket(*control)
		if err := d.ListenControl(*control); err != nil {
			log.Fatal(err)
		}
		log.Printf("control on unix %s", *control)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("%s: draining (deadline %s)", s, *drainT)

	// Double-tap: a second signal mid-drain aborts the drain and exits
	// nonzero immediately, so a stuck drain never needs an external
	// kill -9 (which would skip the checkpoint silently).
	//mmvet:allow gorphan process-lifetime watchdog: it blocks on a second signal and os.Exit(1)s, so joining it would defeat the double-tap abort
	go func() {
		s := <-sig
		log.Printf("%s: drain aborted", s)
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	cp, err := d.Shutdown(ctx)
	if err != nil {
		log.Fatalf("drain: %v", err)
	}
	log.Printf("drained: %s", d.Status().Summary())
	if *checkpoint != "" {
		log.Printf("checkpoint: %s/checkpoint.json (%d streams, %d carriers)",
			*checkpoint, len(cp.Streams), len(cp.Carriers))
	}
}

// removeStaleSocket unlinks a unix socket file left behind by a crashed
// daemon (SIGKILL skips listener cleanup, and the stale file would make
// the restart's bind fail — defeating crash recovery). A socket a live
// process still answers on is left alone, so two daemons can't silently
// steal each other's path; the bind then fails loudly as it should.
func removeStaleSocket(path string) {
	if fi, err := os.Stat(path); err != nil || fi.Mode()&os.ModeSocket == 0 {
		return
	}
	if conn, err := net.DialTimeout("unix", path, time.Second); err == nil {
		conn.Close()
		return
	}
	if err := os.Remove(path); err == nil {
		log.Printf("removed stale socket %s", path)
	}
}

func statusCmd(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	var (
		control = fs.String("control", "", "control socket path of the daemon")
		format  = fs.String("format", "summary", "output format: summary or json")
	)
	fs.Parse(args)
	if *control == "" {
		log.Fatal("status: -control is required")
	}
	st, err := pipeline.QueryStatus(*control)
	if err != nil {
		log.Fatal(err)
	}
	switch *format {
	case "summary":
		fmt.Println(st.Summary())
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(st); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("status: unknown -format %q (want summary or json)", *format)
	}
}

func feed(args []string) {
	fs := flag.NewFlagSet("feed", flag.ExitOnError)
	var (
		in      = fs.String("i", "", "input diag capture (from `mmlab collect`)")
		tcp     = fs.String("tcp", "", "daemon TCP address")
		unix    = fs.String("unix", "", "daemon unix-socket path")
		carrier = fs.String("carrier", "A", "stream's carrier label")
		stream  = fs.String("stream", "s0", "stream name within the carrier")
		seed    = fs.Int64("seed", 1, "fault schedule seed")
		retries = fs.Int("retries", 0, "consecutive connection attempts before giving up (0 = default 10)")
		backoff = fs.Duration("backoff", 0, "initial reconnect backoff (0 = default 10ms)")
		maxBack = fs.Duration("maxbackoff", 0, "reconnect backoff cap (0 = default 1s)")
		waitDur = fs.Bool("waitdurable", false, "wait for the daemon's durable (checkpoint) ack before exiting")
		durTime = fs.Duration("durabletimeout", 0, "bound on the -waitdurable wait (0 = default 30s)")
		fDisc   = fs.Float64("fault.disconnect", 0, "per-record mid-record disconnect probability")
		fCorr   = fs.Float64("fault.corrupt", 0, "per-record corrupt-then-retransmit probability")
		fGarb   = fs.Float64("fault.garbage", 0, "per-record junk-run probability")
		fStall  = fs.Float64("fault.stall", 0, "per-record stall probability")
		fStallM = fs.Int("fault.stallms", 50, "stall duration in milliseconds")
	)
	fs.Parse(args)
	if *in == "" {
		log.Fatal("feed: -i is required")
	}
	opt := feeder.Options{
		Carrier:        *carrier,
		Stream:         *stream,
		Seed:           *seed,
		Retries:        *retries,
		Backoff:        *backoff,
		MaxBackoff:     *maxBack,
		WaitDurable:    *waitDur,
		DurableTimeout: *durTime,
		Faults: feeder.Faults{
			Disconnect: *fDisc,
			Corrupt:    *fCorr,
			Garbage:    *fGarb,
			Stall:      *fStall,
			StallMs:    *fStallM,
		},
	}
	switch {
	case *tcp != "" && *unix != "":
		log.Fatal("feed: -tcp and -unix are mutually exclusive")
	case *tcp != "":
		opt.Network, opt.Addr = "tcp", *tcp
	case *unix != "":
		opt.Network, opt.Addr = "unix", *unix
	default:
		log.Fatal("feed: need -tcp or -unix")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st, err := feeder.Feed(ctx, data, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fed %d records as %s/%s (corrupted %d, garbage %d, disconnects %d, stalls %d, reconnects %d, rewinds %d)\n",
		st.Records, *carrier, *stream, st.Corrupted, st.Garbage, st.Disconnects, st.Stalls, st.Reconnects, st.Rewinds)
}
