package dagp

import (
	"math"
	"math/rand"
	"testing"
)

func TestCtx(t *testing.T) {
	c := Ctx(512)
	if len(c) != 1 || math.Abs(c[0]-0.5) > 1e-12 {
		t.Fatalf("Ctx(512) = %v", c)
	}
}

func TestFitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := FitWorkers(nil, rng, 0); err == nil {
		t.Fatal("empty sample set accepted")
	}
	if _, err := FitWorkers([]Sample{{X: []float64{0}, DataGB: 100, Sec: 1}}, rng, 0); err == nil {
		t.Fatal("single sample accepted")
	}
}

// TestDataSizeAwareness is the DAGP selling point: a model trained on mixed
// data sizes predicts that the same configuration runs longer on more data,
// without any observation at the queried size.
func TestDataSizeAwareness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	truth := func(x float64, gb float64) float64 {
		// Latency grows with data size and has a config optimum at x=0.6.
		return gb / 100 * (1 + 4*(x-0.6)*(x-0.6))
	}
	var samples []Sample
	for i := 0; i < 40; i++ {
		x := rng.Float64()
		gb := []float64{100, 200, 400}[rng.Intn(3)]
		samples = append(samples, Sample{X: []float64{x}, DataGB: gb, Sec: truth(x, gb)})
	}
	m, err := FitWorkers(samples, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Interpolated size 300 GB was never observed.
	lo, _ := m.Predict([]float64{0.6}, 100)
	mid, _ := m.Predict([]float64{0.6}, 300)
	hi, _ := m.Predict([]float64{0.6}, 400)
	if !(lo < mid && mid < hi) {
		t.Fatalf("latency not increasing in data size: %v, %v, %v", lo, mid, hi)
	}
	// The config optimum must be recognizable at the unseen size.
	good, _ := m.Predict([]float64{0.6}, 300)
	bad, _ := m.Predict([]float64{0.05}, 300)
	if good >= bad {
		t.Fatalf("optimum not transferred across sizes: good %v, bad %v", good, bad)
	}
}

func TestSelectTransfer(t *testing.T) {
	// 30 observations spread across three sizes; target 150 GB.
	var samples []Sample
	for i := 0; i < 10; i++ {
		samples = append(samples, Sample{X: []float64{0.1}, DataGB: 100, Sec: 100 + float64(i)})
		samples = append(samples, Sample{X: []float64{0.2}, DataGB: 200, Sec: 200 + float64(i)})
		samples = append(samples, Sample{X: []float64{0.3}, DataGB: 3200, Sec: 900 + float64(i)})
	}
	sel := SelectTransfer(samples, 150, 12)
	if len(sel) != 12 {
		t.Fatalf("got %d samples, want 12", len(sel))
	}
	// The far-away 3.2 TB observations must be crowded out by the two
	// neighboring sizes.
	for _, i := range sel {
		if samples[i].DataGB > 1000 {
			t.Fatalf("far-size sample (%.0f GB) selected over near sizes", samples[i].DataGB)
		}
	}
	// Short-input and under-max passthrough copies everything.
	if got := SelectTransfer(samples[:3], 150, 12); len(got) != 3 {
		t.Fatalf("passthrough returned %d, want 3", len(got))
	}
	if got := SelectTransfer(samples, 150, 0); len(got) != len(samples) {
		t.Fatalf("max<=0 returned %d, want all %d", len(got), len(samples))
	}
}

func TestSelectTransferPrefersLowLatencyAtEqualSize(t *testing.T) {
	var samples []Sample
	for i := 0; i < 20; i++ {
		samples = append(samples, Sample{X: []float64{float64(i) / 20}, DataGB: 100, Sec: float64(1 + i)})
	}
	sel := SelectTransfer(samples, 100, 5)
	for _, i := range sel {
		if samples[i].Sec > 5 {
			t.Fatalf("high-latency sample (%.0f s) selected; want the 5 fastest", samples[i].Sec)
		}
	}
}

func TestPredictVarianceNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var samples []Sample
	for i := 0; i < 12; i++ {
		samples = append(samples, Sample{
			X:      []float64{rng.Float64(), rng.Float64()},
			DataGB: 100 + rng.Float64()*400,
			Sec:    10 + rng.Float64()*5,
		})
	}
	m, err := FitWorkers(samples, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_, v := m.Predict([]float64{rng.Float64(), rng.Float64()}, 100+rng.Float64()*900)
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("bad variance %v", v)
		}
	}
}

func TestAppendExtendsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	truth := func(x, gb float64) float64 { return gb / 100 * (1 + 4*(x-0.6)*(x-0.6)) }
	mk := func(n int) []Sample {
		out := make([]Sample, 0, n)
		for i := 0; i < n; i++ {
			x := rng.Float64()
			gb := []float64{100, 200, 400}[rng.Intn(3)]
			out = append(out, Sample{X: []float64{x}, DataGB: gb, Sec: truth(x, gb)})
		}
		return out
	}
	base := mk(25)
	fresh := mk(10)
	m, err := FitWorkers(base, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(fresh...); err != nil {
		t.Fatal(err)
	}
	if m.g.N() != 35 {
		t.Fatalf("N = %d; want 35", m.g.N())
	}
	// The extended model must still be datasize-aware.
	small, _ := m.Predict([]float64{0.6}, 100)
	large, _ := m.Predict([]float64{0.6}, 400)
	if large <= small {
		t.Fatalf("appended model lost size awareness: %v <= %v", large, small)
	}
}

func TestFitTransferMatchesFitQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	truth := func(x, gb float64) float64 { return gb / 100 * (1 + 4*(x-0.55)*(x-0.55)) }
	var base, fresh []Sample
	for i := 0; i < 30; i++ {
		x := rng.Float64()
		gb := []float64{150, 300}[rng.Intn(2)]
		base = append(base, Sample{X: []float64{x}, DataGB: gb, Sec: truth(x, gb)})
	}
	for i := 0; i < 6; i++ {
		x := rng.Float64()
		fresh = append(fresh, Sample{X: []float64{x}, DataGB: 200, Sec: truth(x, 200)})
	}
	m, err := FitTransferWorkers(base, fresh, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.g.N() != 36 {
		t.Fatalf("N = %d; want 36", m.g.N())
	}
	// Prediction at the target size must roughly track the truth around the
	// optimum — the transfer didn't corrupt the surrogate.
	got, _ := m.Predict([]float64{0.55}, 200)
	if math.Abs(got-truth(0.55, 200)) > 0.5 {
		t.Fatalf("transfer model predicts %v at the optimum; want ≈%v", got, truth(0.55, 200))
	}
	// Degenerate splits fall back to a joint fit.
	if m, err := FitTransferWorkers(base[:1], fresh, rng, 0); err != nil || m.g.N() != 7 {
		t.Fatalf("tiny base fallback: %v, n=%v", err, m.g.N())
	}
	if m, err := FitTransferWorkers(base, nil, rng, 0); err != nil || m.g.N() != 30 {
		t.Fatalf("no-fresh path: %v", err)
	}
}
