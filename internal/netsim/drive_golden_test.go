package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"mmlab/internal/fault"
	"mmlab/internal/sib"
	"mmlab/internal/traffic"
)

// driveGoldens pins one drive per flavor — idle, active with traffic,
// fault-injected with RLF recovery (with and without an app, so the
// re-establishment outage runs both with and without app service) — to
// the SHA-256 of its JSON-encoded DriveResult and of its flushed diag
// capture. The digests were captured on amd64 from the event-queue driver
// and the fixed-step loop over a linear scan that preceded the single
// stepped loop over the grid index; the two agreed byte for byte. The Go
// compiler may fuse x*y+z into FMA on other architectures (arm64,
// ppc64le, s390x), so a mismatch there is not by itself a regression.
var driveGoldens = []struct {
	name       string
	opts       func() UEOpts
	result     string
	diag       string
	wantReestb bool // the run must exercise RLF re-establishment
}{
	{"idle", func() UEOpts { return UEOpts{Seed: 5} },
		"a28b41a32086498aedb5f583acdaf8161ae75f7be3fd0c69350e570df314834e",
		"e7204f813337227ec019ede27d402077191e8e4977bb268737544e8fbfab326d", false},
	{"active-speedtest", func() UEOpts {
		return UEOpts{Seed: 5, Active: true, App: traffic.Speedtest{}}
	},
		"64cdf865a84cf19cfb4408915d63152572d4f905cfce3f03c766545b91bd0ec8",
		"d71ddb96077ca80394ab255941be5cd5f1ba53d05b9a29340fbdfce73735f906", false},
	{"active-tcp-defaultfaults", func() UEOpts {
		return UEOpts{Seed: 5, Active: true, App: traffic.NewTCPDownload(),
			Injector: fault.New(7, fault.DefaultRates())}
	},
		"84ba1a7f3e4cd615fae802d28aced11833d81618da3ce020ddfcd349c8556642",
		"495ed8664b0403a42dd81781ce27075531bb613d4be283dcaebe60b693ca2460", false},
	{"active-fade-rlf", func() UEOpts {
		return UEOpts{Seed: 5, Active: true, App: traffic.Speedtest{},
			Injector: fault.New(11, fault.Rates{Fade: 0.35})}
	},
		"1bf49abda0a807ef4a6b555d9a5675092fc66d3ffb786a60f3078b4c2118b200",
		"efa33f4c47df8755ae38a7001d5bb41232ece73e8a04b54a89355a4dc76abeb3", true},
	{"active-fade-noapp", func() UEOpts {
		return UEOpts{Seed: 5, Active: true,
			Injector: fault.New(11, fault.Rates{Fade: 0.35})}
	},
		"48a32a54eae293667a09ed56585764676cc26278245709a057912deb7c8d6281",
		"efa33f4c47df8755ae38a7001d5bb41232ece73e8a04b54a89355a4dc76abeb3", true},
}

// TestDriveGoldens runs every golden drive and requires byte-identical
// results and diag captures.
func TestDriveGoldens(t *testing.T) {
	for _, g := range driveGoldens {
		t.Run(g.name, func(t *testing.T) {
			w := testWorld(t, "A", WorldOpts{LTELayers: 3})
			route := RowRoute(w, 45, 120)
			var diag bytes.Buffer
			o := g.opts()
			o.Diag = sib.NewDiagWriter(&diag)
			res := RunDrive(w, route, route.Duration(), o)
			if err := o.Diag.Flush(); err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(js); got != g.result {
				t.Errorf("DriveResult digest %s, golden %s", got, g.result)
			}
			if got := sha256Hex(diag.Bytes()); got != g.diag {
				t.Errorf("diag digest %s, golden %s", got, g.diag)
			}
			if g.wantReestb && res.Failures.Reestabs == 0 {
				t.Error("no re-establishments; the outage path is untested")
			}
		})
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
