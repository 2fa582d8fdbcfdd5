package mmlab

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"mmlab/internal/crawler"
	"mmlab/internal/dataset"
)

// d2Golden pins the SHA-256 of the serialized D2 dataset of the global
// crawl at bench scale (benchD2Scale, benchSeed). It was captured on
// amd64 with every seeded generator drawing from math/rand's own
// source; a change to how generators are seeded must keep it. The Go
// compiler may fuse x*y+z into FMA on other architectures (arm64,
// ppc64le, s390x), so a mismatch there is not by itself a regression.
const d2Golden = "9171eee33d404edeb1dcfccc20dac76d03f1b3814c4edff8c1932001aeddae69"

// TestD2Goldens crawls the global fleet at workers 1 and 8 and requires
// the pinned bytes from both.
func TestD2Goldens(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d2, err := crawler.BuildGlobalD2(context.Background(), benchD2Scale, benchSeed, workers)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := dataset.WriteD2(&buf, d2.Snapshots); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != d2Golden {
				t.Errorf("D2 digest %s, golden %s (%d snapshots)", got, d2Golden, len(d2.Snapshots))
			}
		})
	}
}
