// Package wallclock is mmvet analyzer testdata; the golden test loads
// it under deterministic import paths (internal/core, internal/carrier,
// internal/sib), where every wall-clock read must be flagged.
package wallclock

import "time"

func now() int64 {
	return time.Now().UnixMilli() // want "time.Now reads the wall clock"
}

func since(t time.Time) time.Duration {
	return time.Since(t) // want "time.Since reads the wall clock"
}

func timer(d time.Duration) {
	t := time.NewTimer(d) // want "time.NewTimer reads the wall clock"
	<-t.C
	<-time.After(d) // want "time.After reads the wall clock"
}

// Pure duration arithmetic and formatting stay legal.
func legal(d time.Duration) string {
	return (d * 2).String()
}

// Simulated clocks passed in as values are the sanctioned pattern.
func legalSim(nowMs int64, stepMs int64) int64 {
	return nowMs + stepMs
}

func annotated() int64 {
	//mmvet:allow wallclock coarse progress logging only, value never reaches campaign output
	return time.Now().UnixMilli()
}
