package mmlab

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mmlab/internal/dataset"
	"mmlab/internal/experiment"
	"mmlab/internal/fault"
)

// d1Goldens pins the SHA-256 of the serialized D1 dataset at the
// TestD1DeterministicAcrossWorkers settings (scale 0.004, seed 2, C3),
// fault-free and with the default fault rates. The digests were captured
// on amd64 from the serial campaign loop, where each carrier×state
// campaign ran in its own pool one after another. The Go compiler may
// fuse x*y+z into FMA on other architectures (arm64, ppc64le, s390x), so
// a mismatch there is not by itself a regression.
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

// TestD1Goldens builds each golden campaign at workers 1 and 8 and
// requires the pinned bytes from both.
func TestD1Goldens(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign")
	}
	for _, g := range d1Goldens {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", g.name, workers), func(t *testing.T) {
				d1, err := experiment.BuildD1(context.Background(), experiment.D1Options{
					Scale: 0.004, Seed: 2, Cities: []string{"C3"}, Workers: workers,
					Faults: g.faults,
				})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := dataset.WriteD1(&buf, d1.Records); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != g.digest {
					t.Errorf("D1 digest %s, golden %s (%d records)", got, g.digest, len(d1.Records))
				}
			})
		}
	}
}
