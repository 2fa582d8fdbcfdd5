package pipeline_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mmlab/internal/config"
	"mmlab/internal/crawler"
	"mmlab/internal/pipeline"
	"mmlab/internal/units"
)

// TestWriteFileErrorKeepsPrevious: a checkpoint that fails to encode
// must leave the previous checkpoint.json untouched and no temp file
// behind, so a restart still finds the last good state.
func TestWriteFileErrorKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	good := &pipeline.Checkpoint{Carriers: []pipeline.CarrierAggregate{{Carrier: "A"}}}
	if err := good.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "checkpoint.json")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	bad := &pipeline.Checkpoint{Carriers: []pipeline.CarrierAggregate{{
		Carrier: "A",
		Catalog: []pipeline.CellEntry{{Params: map[string][]float64{"q": {math.NaN()}}}},
	}}}
	if err := bad.WriteFile(dir); err == nil {
		t.Fatal("WriteFile of a NaN parameter succeeded; want an encode error")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("failed WriteFile changed checkpoint.json")
	}
	if _, err := os.Stat(filepath.Join(dir, ".checkpoint.json.tmp")); !os.IsNotExist(err) {
		t.Fatalf("failed WriteFile left its temp file behind (stat: %v)", err)
	}
}

// TestCheckpointEncodeMatchesEncodingJSON pins Encode to the bytes
// json.NewEncoder(w).Encode writes for the same checkpoint. The filled
// case sets every field at every depth by reflection, so a field added
// to any checkpoint type fails here until Encode writes it.
func TestCheckpointEncodeMatchesEncodingJSON(t *testing.T) {
	filled := &pipeline.Checkpoint{}
	(&filler{}).fill(reflect.ValueOf(filled).Elem())
	empty := &pipeline.Checkpoint{}
	(&filler{empty: true}).fill(reflect.ValueOf(empty).Elem())
	nils := &pipeline.Checkpoint{
		Streams: []pipeline.StreamCheckpoint{
			{Snapshots: []crawler.ConfigSnapshot{{}}, Events: []crawler.HandoffEvent{{}}},
			{Snapshots: []crawler.ConfigSnapshot{}, Events: []crawler.HandoffEvent{}},
			{},
		},
		Carriers: []pipeline.CarrierAggregate{
			{Catalog: []pipeline.CellEntry{{}, {Params: map[string][]float64{"a": nil, "b": {}}}}},
			{Catalog: []pipeline.CellEntry{}},
			{},
		},
		Resume: []pipeline.StreamResume{{}},
	}
	ref, err := pipeline.Reference([]pipeline.FeedInput{
		{Carrier: "A", Stream: "s0", Data: capture(t, "A", 3)},
		{Carrier: "T", Stream: "s0", Data: capture(t, "T", 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cp   *pipeline.Checkpoint
	}{
		{"filled", filled},
		{"empty", empty},
		{"nil", nils},
		{"zero", &pipeline.Checkpoint{}},
		{"reference", ref},
	} {
		t.Run(c.name, func(t *testing.T) {
			var want, got bytes.Buffer
			if err := json.NewEncoder(&want).Encode(c.cp); err != nil {
				t.Fatal(err)
			}
			if err := c.cp.Encode(&got); err != nil {
				t.Fatal(err)
			}
			if d := firstDiff(got.Bytes(), want.Bytes()); d != "" {
				t.Fatal(d)
			}
		})
	}

	// NaN and ±Inf fail in encoding/json; they must fail in Encode too,
	// wherever they sit.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		snap := []crawler.ConfigSnapshot{{Config: config.CellConfig{TxPowerDBm: units.Dbm(v)}}}
		for i, cp := range []*pipeline.Checkpoint{
			{Streams: []pipeline.StreamCheckpoint{{Snapshots: snap}}},
			{Carriers: []pipeline.CarrierAggregate{{Catalog: []pipeline.CellEntry{{Params: map[string][]float64{"q": {v}}}}}}},
			{Resume: []pipeline.StreamResume{{Parser: &crawler.ParserResume{Cur: &snap[0]}}}},
		} {
			if err := cp.Encode(io.Discard); err == nil {
				t.Errorf("Encode of %v (case %d: snapshot, params, resume) succeeded; want an error", v, i)
			}
		}
	}
}

// TestBuildCheckpointEmptyStream: a stream that extracted nothing keeps
// "snapshots":[] in the checkpoint, not null, and no events key.
func TestBuildCheckpointEmptyStream(t *testing.T) {
	cp := pipeline.BuildCheckpoint([]*pipeline.StreamResult{{Carrier: "A", Stream: "s0"}})
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"streams":[{"carrier":"A","stream":"s0","snapshots":[]}],"carriers":[{"carrier":"A","streams":1,"snapshots":0,"events":0,"cells":0,"paramSamples":0,"catalog":null}]}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

// firstDiff describes where got first departs from want, or returns ""
// when they are equal.
func firstDiff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-60)
	return fmt.Sprintf("Encode differs from encoding/json at byte %d (lengths %d, %d):\n got …%q\nwant …%q",
		i, len(got), len(want), got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
}

// fillFloats and fillStrings are the leaf values the filler cycles
// through: a signed zero, both exponent-format boundaries, a plain
// fraction, integers on both sides of 1e15 and one past 2^53; and
// plain ASCII around one character each that encoding/json escapes or
// passes through specially (HTML characters, line and paragraph
// separators, invalid UTF-8, non-ASCII, quotes, controls, DEL).
var (
	fillFloats  = []float64{math.Copysign(0, -1), 5e-7, 1e21, 2.5, -120, 1e-7, 123456789.125, 1e15, 1 << 60, 3}
	fillStrings = []string{"A<b", "c>d", "e&f", "g\u2028h", "i\u2029j", "k\xffl", "m\u00e9n", "o\"p", "q\\r", "s\nt", "u\x01v", "w\x7fx", "plain"}
)

// filler sets a value by reflection. Full (the default), it sets every
// field at every depth: numbers, strings and bools non-zero, slices to
// two elements, maps to twelve keys (integer keys straddling a digit
// count, so decimal-string order differs from numeric order; string
// keys from fillStrings) and pointers to filled values. Empty, it
// leaves scalars zero, makes every map and every slice of scalars empty
// but not nil, and gives slices of structs one element, so empty values
// appear at every depth. A kind it does not know panics, so a new kind
// of field cannot slip past the test unfilled.
type filler struct {
	n     int // advances at every value, so siblings differ
	empty bool
}

func (f *filler) fill(v reflect.Value) {
	f.n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Slice:
		n := 2
		if f.empty {
			n = 0
			if v.Type().Elem().Kind() == reflect.Struct {
				n = 1
			}
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			f.fill(v.Index(i))
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 12 && !f.empty; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			switch k.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				k.SetInt(int64(i*7 - 5))
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				k.SetUint(uint64(i*7 + 2))
			case reflect.String:
				k.SetString(fmt.Sprintf("%s%d", fillStrings[i%len(fillStrings)], i))
			default:
				panic("filler: map key kind " + k.Kind().String())
			}
			e := reflect.New(v.Type().Elem()).Elem()
			f.fill(e)
			v.SetMapIndex(k, e)
		}
	case reflect.Bool:
		v.SetBool(!f.empty)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if !f.empty {
			v.SetInt(int64(f.n%100+1) * int64(1-2*(f.n%2)))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if !f.empty {
			v.SetUint(uint64(f.n%200 + 1))
		}
	case reflect.Float32, reflect.Float64:
		if !f.empty {
			v.SetFloat(fillFloats[f.n%len(fillFloats)])
		}
	case reflect.String:
		if !f.empty {
			v.SetString(fillStrings[f.n%len(fillStrings)])
		}
	default:
		panic("filler: kind " + v.Kind().String())
	}
}

// BenchmarkCheckpointEncode times encoding the batch reference of one
// carrier capture, the work every drain and periodic checkpoint does.
func BenchmarkCheckpointEncode(b *testing.B) {
	benchmarkEncode(b, []pipeline.FeedInput{{Carrier: "A", Stream: "s0", Data: capture(b, "A", 3)}})
}

// BenchmarkCheckpointEncodeStreams times encoding the batch reference of
// two captures each for carriers A and T, the shape of a multi-stream
// ingest drain, where the streams' snapshots outweigh the catalogs.
func BenchmarkCheckpointEncodeStreams(b *testing.B) {
	var inputs []pipeline.FeedInput
	for _, acr := range []string{"A", "T"} {
		for k := int64(0); k < 2; k++ {
			inputs = append(inputs, pipeline.FeedInput{Carrier: acr, Stream: fmt.Sprintf("s%d", k), Data: capture(b, acr, 3+k)})
		}
	}
	benchmarkEncode(b, inputs)
}

func benchmarkEncode(b *testing.B, inputs []pipeline.FeedInput) {
	cp, err := pipeline.Reference(inputs)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cp.Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
