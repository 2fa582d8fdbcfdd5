package radio

import (
	"math"
	"testing"
	"testing/quick"

	"mmlab/internal/units"
)

func TestClampRSRP(t *testing.T) {
	tests := []struct{ in, want units.Dbm }{
		{-200, RSRPMin}, {-100, -100}, {0, RSRPMax}, {RSRPMin, RSRPMin}, {RSRPMax, RSRPMax},
	}
	for _, tt := range tests {
		if got := ClampRSRP(tt.in); got != tt.want {
			t.Errorf("ClampRSRP(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestClampRSRQ(t *testing.T) {
	if got := ClampRSRQ(-25); got != RSRQMin {
		t.Errorf("ClampRSRQ(-25) = %v", got)
	}
	if got := ClampRSRQ(0); got != RSRQMax {
		t.Errorf("ClampRSRQ(0) = %v", got)
	}
	if got := ClampRSRQ(-10); got != -10 {
		t.Errorf("ClampRSRQ(-10) = %v", got)
	}
}

func TestCOST231HataShape(t *testing.T) {
	m := DefaultCOST231()
	// Published sanity point: f=2000 MHz, hb=30, hm=1.5, d=1 km → ~137-139 dB.
	got := m.Loss(1000, 2000)
	if got < 130 || got > 145 {
		t.Errorf("COST231(1km,2GHz) = %v, want ~137", got)
	}
	// Urban model must exceed free space at macro distances: FSPL(1 km,
	// 2 GHz) = 20·log10(1) + 20·log10(2000) + 32.45 = 98.47 dB.
	if got <= 98.47 {
		t.Errorf("COST231(1km,2GHz) = %v should exceed FSPL 98.47", got)
	}
	// Slope: roughly 35 dB/decade with hb=30.
	d1, d10 := m.Loss(1000, 2000), m.Loss(10000, 2000)
	slope := d10 - d1
	if slope < 33 || slope < 0 || slope > 38 {
		t.Errorf("per-decade slope = %v, want ~35", slope)
	}
}

// TestCOST231DefaultsOnZeroHeights: the zero value is the model, with
// the 30 m / 1.5 m antenna heights built in.
func TestCOST231DefaultsOnZeroHeights(t *testing.T) {
	got := COST231Hata{}.Loss(1000, 2000)
	if math.IsNaN(got.V()) || math.IsInf(got.V(), 0) {
		t.Errorf("zero-value model should be usable, got %v", got)
	}
	if got != DefaultCOST231().Loss(1000, 2000) {
		t.Error("DefaultCOST231 differs from the zero value")
	}
}

func TestCOST231MonotoneProperty(t *testing.T) {
	m := DefaultCOST231()
	f := func(a, b uint16) bool {
		d1 := float64(a%20000) + 10
		d2 := float64(b%20000) + 10
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return m.Loss(units.Meters(d1), 1900) <= m.Loss(units.Meters(d2), 1900)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRSRPAt(t *testing.T) {
	loss := DefaultCOST231().Loss(1000, 2000)
	if got, want := RSRPAt(15, 1000, 2000, 0), units.Dbm(15-loss.V()); got != want {
		t.Errorf("RSRPAt = %v, want %v", got, want)
	}
	// Extra loss attenuates dB for dB.
	if got, want := RSRPAt(15, 1000, 2000, 3), units.Dbm(15-loss.V()-3); got != want {
		t.Errorf("RSRPAt with 3 dB extra loss = %v, want %v", got, want)
	}
	// Always within reportable range.
	if v := RSRPAt(15, 100000, 2000, 40); v < RSRPMin || v > RSRPMax {
		t.Errorf("RSRP out of range: %v", v)
	}
}

func TestRSRQFromRSRP(t *testing.T) {
	// No load: best RSRQ regardless of RSRP.
	if q := RSRQFromRSRP(-80, 0); q != RSRQMax {
		t.Errorf("RSRQ(no load) = %v, want %v", q, RSRQMax)
	}
	// Higher load degrades RSRQ.
	if RSRQFromRSRP(-80, 0.8) >= RSRQFromRSRP(-80, 0.2) {
		t.Error("RSRQ should degrade with load")
	}
	// Weaker RSRP at equal load degrades RSRQ.
	if RSRQFromRSRP(-130, 0.5) >= RSRQFromRSRP(-70, 0.5) {
		t.Error("RSRQ should degrade with weaker RSRP under load")
	}
	// Range property.
	f := func(r, l float64) bool {
		q := RSRQFromRSRP(units.Dbm(clamp(r, RSRPMin, RSRPMax)), math.Abs(math.Mod(l, 1)))
		return q >= RSRQMin && q <= RSRQMax
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShadowFieldStatistics(t *testing.T) {
	f := NewShadowField(42, 6, 50)
	// Empirical stdev over a wide area should be within 25% of nominal.
	var xs []float64
	for i := 0; i < 4000; i++ {
		x := float64(i%80) * 37.3
		y := float64(i/80) * 41.1
		xs = append(xs, f.At(x, y).V())
	}
	mean, varr := meanVar(xs)
	if math.Abs(mean) > 1.5 {
		t.Errorf("field mean = %v, want ~0", mean)
	}
	sd := math.Sqrt(varr)
	if sd < 4 || sd > 8 {
		t.Errorf("field stdev = %v, want ~6", sd)
	}
}

func TestShadowFieldDeterministic(t *testing.T) {
	a := NewShadowField(7, 6, 50)
	b := NewShadowField(7, 6, 50)
	for i := 0; i < 20; i++ {
		x, y := float64(i)*13, float64(i)*29
		if a.At(x, y) != b.At(x, y) {
			t.Fatal("same seed must give identical fields")
		}
	}
	c := NewShadowField(8, 6, 50)
	same := true
	for i := 0; i < 20; i++ {
		x, y := float64(i)*13, float64(i)*29
		if a.At(x, y) != c.At(x, y) {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different fields")
	}
}

func TestShadowFieldCorrelation(t *testing.T) {
	f := NewShadowField(3, 6, 100)
	// Nearby points (5 m) should be much closer in value than far points (1 km).
	var nearDiff, farDiff float64
	n := 500
	for i := 0; i < n; i++ {
		x, y := float64(i)*53.7, float64(i)*17.9
		nearDiff += math.Abs((f.At(x, y) - f.At(x+5, y)).V())
		farDiff += math.Abs((f.At(x, y) - f.At(x+1000, y)).V())
	}
	if nearDiff >= farDiff {
		t.Errorf("near-diff %v should be < far-diff %v", nearDiff/float64(n), farDiff/float64(n))
	}
}

func TestShadowFieldZeroCorrDistDefaults(t *testing.T) {
	f := NewShadowField(1, 6, 0)
	if v := f.At(10, 10); math.IsNaN(v.V()) || math.IsInf(v.V(), 0) {
		t.Errorf("field with default corrDist broken: %v", v)
	}
}

func TestFastFadingStationary(t *testing.T) {
	ff := NewFastFading(11, 1.5, 0.8)
	var xs []float64
	for i := 0; i < 20000; i++ {
		xs = append(xs, ff.Next().V())
	}
	mean, varr := meanVar(xs)
	if math.Abs(mean) > 0.2 {
		t.Errorf("fading mean = %v", mean)
	}
	sd := math.Sqrt(varr)
	if sd < 1.2 || sd > 1.8 {
		t.Errorf("fading stdev = %v, want ~1.5", sd)
	}
}

func TestFastFadingRhoClamped(t *testing.T) {
	for _, rho := range []float64{-0.5, 1.0, 2.0} {
		ff := NewFastFading(5, 1, rho)
		for i := 0; i < 100; i++ {
			if v := ff.Next(); math.IsNaN(v.V()) || math.IsInf(v.V(), 0) {
				t.Fatalf("rho=%v produced %v", rho, v)
			}
		}
	}
}

func TestL3Filter(t *testing.T) {
	// k=0 → a=1 → output equals input.
	f := NewL3Filter(0)
	if got := f.Update(-100); got != -100 {
		t.Errorf("k=0 first = %v", got)
	}
	if got := f.Update(-80); got != -80 {
		t.Errorf("k=0 passthrough = %v", got)
	}
	// k=4 → a=0.5 → halfway smoothing.
	f = NewL3Filter(4)
	f.Update(-100)
	if got := f.Update(-80); got != -90 {
		t.Errorf("k=4 second = %v, want -90", got)
	}
	if f.Value() != -90 {
		t.Errorf("Value = %v", f.Value())
	}
}

func TestL3FilterPrimedAndReset(t *testing.T) {
	f := NewL3Filter(8)
	if !math.IsNaN(f.Value()) {
		t.Error("unprimed Value should be NaN")
	}
	f.Update(-95)
	if f.Value() != -95 {
		t.Errorf("first update should prime to input, got %v", f.Value())
	}
	f.Reset()
	if !math.IsNaN(f.Value()) {
		t.Error("Reset should unprime")
	}
	if got := f.Update(-70); got != -70 {
		t.Errorf("post-reset first update = %v", got)
	}
}

func TestL3FilterNegativeK(t *testing.T) {
	f := NewL3Filter(-3)
	f.Update(-100)
	if got := f.Update(-80); got != -80 {
		t.Errorf("negative k should behave as k=0, got %v", got)
	}
}

func TestL3FilterConvergence(t *testing.T) {
	f := NewL3Filter(4)
	for i := 0; i < 50; i++ {
		f.Update(-75)
	}
	if math.Abs(f.Value()+75) > 1e-6 {
		t.Errorf("filter should converge to constant input, got %v", f.Value())
	}
}

func TestRSRPQuantization(t *testing.T) {
	tests := []struct {
		dbm  units.Dbm
		want int
	}{
		{-141, 0}, {-140, 1}, {-44, 97}, {-100, 41}, {-139.5, 1}, {0, 97}, {-200, 0},
	}
	for _, tt := range tests {
		if got := QuantizeRSRP(tt.dbm); got != tt.want {
			t.Errorf("QuantizeRSRP(%v) = %d, want %d", tt.dbm, got, tt.want)
		}
	}
}

func TestRSRPQuantizationRoundTrip(t *testing.T) {
	f := func(raw int16) bool {
		dbm := units.Dbm(clamp(float64(raw)/100, RSRPMin, RSRPMax))
		idx := QuantizeRSRP(dbm)
		back := DequantizeRSRP(idx)
		return math.Abs(back.V()-dbm.V()) <= 1.0+1e-9 // 1 dB quantization
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if DequantizeRSRP(-5) != DequantizeRSRP(0) || DequantizeRSRP(200) != DequantizeRSRP(97) {
		t.Error("dequantize should clamp index")
	}
}

func TestRSRQQuantizationRoundTrip(t *testing.T) {
	f := func(raw int16) bool {
		db := units.Db(clamp(float64(raw)/100, RSRQMin, RSRQMax))
		idx := QuantizeRSRQ(db)
		back := DequantizeRSRQ(idx)
		return math.Abs(back.V()-db.V()) <= 0.5+1e-9 // half-dB quantization
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if QuantizeRSRQ(-30) != 0 || QuantizeRSRQ(0) != 34 {
		t.Error("RSRQ quantizer should clamp")
	}
}

func TestThroughput(t *testing.T) {
	// High SINR saturates at the MCS cap: 4.8 bits/s/Hz over 10 MHz less
	// 25 % overhead.
	const capRate = 4.8 * 10e6 * 0.75
	if got := Throughput(40); got != capRate {
		t.Errorf("Throughput(40 dB) = %v, want the cap %v", got, capRate)
	}
	// Monotone in SINR, never negative, and far below the cap near the
	// noise floor.
	prev := -1.0
	for s := -20.0; s <= 40; s += 0.5 {
		th := Throughput(s)
		if th < 0 {
			t.Fatalf("negative throughput %v at SINR %v", th, s)
		}
		if th < prev {
			t.Fatalf("throughput decreased at SINR %v", s)
		}
		prev = th
	}
	if lo := Throughput(-10); lo >= capRate/4 {
		t.Errorf("Throughput(-10 dB) = %v, not << cap %v", lo, capRate)
	}
}

func TestThroughputNeverNegative(t *testing.T) {
	f := func(sinrDB float64) bool { return Throughput(sinrDB) >= 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func meanVar(xs []float64) (float64, float64) {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return m, v / float64(len(xs))
}

func TestNoisePerREMw(t *testing.T) {
	// −174 dBm/Hz + 10log10(15000) + 7 ≈ −125.2 dBm.
	n := NoisePerREMw(7)
	dbm := 10 * math.Log10(n)
	if math.Abs(dbm+125.24) > 0.1 {
		t.Errorf("noise per RE = %.2f dBm, want ~-125.2", dbm)
	}
}

func TestRSRQPhysical(t *testing.T) {
	noise := NoisePerREMw(7)
	// No interference, strong signal → ceiling −3 dB.
	if q := RSRQ(-70, noise); math.Abs(q.V()-RSRQMax) > 0.1 {
		t.Errorf("clean RSRQ = %v, want ~-3", q)
	}
	// Interference-dominated: RSRQ tracks SINR − 3.
	intf := DBmToMw(-90)
	q := RSRQ(-100, intf) // SIR −10 dB
	if math.Abs(q.V()-(-3-10.4)) > 0.5 {
		t.Errorf("RSRQ at SIR -10dB = %v, want ~-13.4", q)
	}
	// Deep interference reaches the −19.5 floor: the paper's strictest
	// RSRQ thresholds (ΘA5 ≈ −18) must be reachable.
	if q := RSRQ(-110, DBmToMw(-92)); q > -18 {
		t.Errorf("deep-interference RSRQ = %v, want ≤ -18", q)
	}
	// Degenerate interference input.
	if q := RSRQ(-100, 0); q != RSRQMax {
		t.Errorf("zero interference = %v", q)
	}
	// Monotone in interference.
	prev := RSRQ(-100, DBmToMw(-130))
	for _, i := range []float64{-120, -110, -100, -90} {
		q := RSRQ(-100, DBmToMw(i))
		if q > prev {
			t.Fatalf("RSRQ increased with interference at %v", i)
		}
		prev = q
	}
}

func TestSINRdB(t *testing.T) {
	if s := SINRdB(-100, DBmToMw(-110)); math.Abs(s-10) > 1e-9 {
		t.Errorf("SINRdB = %v, want 10", s)
	}
	if s := SINRdB(-100, 0); math.IsNaN(s) || math.IsInf(s, 0) {
		t.Errorf("degenerate SINR = %v", s)
	}
}

func TestDBmToMw(t *testing.T) {
	if DBmToMw(0) != 1 || math.Abs(DBmToMw(-30)-0.001) > 1e-12 {
		t.Error("DBmToMw wrong")
	}
}
