package mmlab

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mmlab/internal/analysis"
	"mmlab/internal/dataset"
	"mmlab/internal/experiment"
	"mmlab/internal/fault"
)

// d1Goldens pins the SHA-256 of the serialized D1 dataset at the
// TestD1Goldens settings (scale 0.004, seed 2, C3), fault-free and with
// the default fault rates. The digests were captured on amd64 from the
// serial campaign loop, where each carrier×state campaign ran in its own
// pool one after another. The Go compiler may fuse x*y+z into FMA on
// other architectures (arm64, ppc64le, s390x), so a mismatch there is
// not by itself a regression.
var d1Goldens = []struct {
	name   string
	faults fault.Rates
	digest string
}{
	{"faultfree", fault.Rates{},
		"5af7af7eb6dd48035e4c7b9b48b2ba0d8a115ed63c01c992324d24bb97a665c6"},
	{"defaultfaults", fault.DefaultRates(),
		"50a8cd2139088a172ae75edf064633ac1901402c798510ef2614632cc242beb2"},
}

// d1Build is one golden campaign, built at most once per test binary and
// read by every root test that needs it (none of them runs in parallel).
type d1Build struct {
	d1  *dataset.D1
	raw []byte // dataset.WriteD1 bytes
	err error
}

var d1Builds = map[[2]int]*d1Build{} // key: d1Goldens index, workers

// d1Campaign returns the d1Goldens[golden] campaign built at the given
// worker count, and its serialized bytes.
func d1Campaign(t *testing.T, golden, workers int) (*dataset.D1, []byte) {
	t.Helper()
	key := [2]int{golden, workers}
	b, ok := d1Builds[key]
	if !ok {
		b = &d1Build{}
		b.d1, b.err = experiment.BuildD1(context.Background(), experiment.D1Options{
			Scale: 0.004, Seed: 2, Cities: []string{"C3"}, Workers: workers,
			Faults: d1Goldens[golden].faults,
		})
		if b.err == nil {
			var buf bytes.Buffer
			b.err = dataset.WriteD1(&buf, b.d1.Records)
			b.raw = buf.Bytes()
		}
		d1Builds[key] = b
	}
	if b.err != nil {
		t.Fatalf("%s/workers=%d: %v", d1Goldens[golden].name, workers, b.err)
	}
	return b.d1, b.raw
}

// checkD1AcrossWorkers reports whether the d1Goldens[golden] campaign
// serializes to the same bytes at workers 1 and 8.
func checkD1AcrossWorkers(t *testing.T, golden int) bool {
	t.Helper()
	_, serial := d1Campaign(t, golden, 1)
	_, parallel := d1Campaign(t, golden, 8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("%s: D1 differs across worker counts: %d vs %d bytes", d1Goldens[golden].name, len(serial), len(parallel))
		return false
	}
	return true
}

// checkD1Renders reports Q2 figures that render too short from d1.
func checkD1Renders(t *testing.T, d1 *dataset.D1) {
	t.Helper()
	outputs := []string{
		analysis.RenderFig5(analysis.Fig5(d1, "A", "T")),
		analysis.RenderFig6(analysis.Fig6(d1, "A")),
		analysis.RenderFig9(analysis.Fig9(d1, "T", "RSRP")),
		analysis.RenderFig10(analysis.Fig10(d1)),
	}
	for i, s := range outputs {
		if len(s) < 40 {
			t.Errorf("rendering %d too short (%d bytes)", i, len(s))
		}
	}
}

// TestD1Goldens reads each golden campaign at workers 1 and 8 and checks,
// in order:
//  1. the worker count changes no byte (no digest involved, so this
//     holds across a deliberate re-pin);
//  2. every build matches its pinned digest;
//  3. fault injection keeps the campaign quotas but changes the dataset;
//  4. the fault-free dataset renders Figs. 5, 6, 9 and 10.
func TestD1Goldens(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	workers := []int{1, 8}
	same := true
	for i := range d1Goldens {
		same = checkD1AcrossWorkers(t, i) && same
	}
	if !same {
		t.FailNow()
	}

	for i, g := range d1Goldens {
		for _, w := range workers {
			t.Run(fmt.Sprintf("%s/workers=%d", g.name, w), func(t *testing.T) {
				d1, raw := d1Campaign(t, i, w)
				sum := sha256.Sum256(raw)
				if got := hex.EncodeToString(sum[:]); got != g.digest {
					t.Errorf("D1 digest %s, golden %s (%d records)", got, g.digest, len(d1.Records))
				}
			})
		}
	}

	clean, cleanRaw := d1Campaign(t, 0, 1) // d1Goldens order
	faulted, faultedRaw := d1Campaign(t, 1, 1)
	if len(faulted.Records) != len(clean.Records) {
		t.Errorf("faulted campaign quota %d, clean %d", len(faulted.Records), len(clean.Records))
	}
	if bytes.Equal(cleanRaw, faultedRaw) {
		t.Error("default fault rates left the campaign dataset unchanged")
	}

	checkD1Renders(t, clean)
}
