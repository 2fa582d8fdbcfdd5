package radio

import (
	"testing"

	"mmlab/internal/units"
)

// sink keeps the benchmarked results live.
var sink float64

// BenchmarkShadowFieldAt evaluates 135 independent fields, on the order
// of the hundred or so cells a D1 drive hears per tick, at points 0.5 m
// apart along one row, as a UE driving RowRoute queries them. One op is
// one At.
func BenchmarkShadowFieldAt(b *testing.B) {
	const nFields = 135
	fields := make([]*ShadowField, nFields)
	for i := range fields {
		fields[i] = NewShadowField(int64(i), 6, 60)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += fields[i%nFields].At(float64(i/nFields)*0.5, 120).V()
	}
}

// BenchmarkCOST231Loss evaluates the default urban model over the
// distances of an audible set. One op is one Loss.
func BenchmarkCOST231Loss(b *testing.B) {
	m := DefaultCOST231()
	for i := 0; i < b.N; i++ {
		sink += m.Loss(units.Meters(10+i%3000), 1960).V()
	}
}
