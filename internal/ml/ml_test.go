package ml

import (
	"math"
	"math/rand"
	"testing"

	"locat/internal/stat"
)

// synth generates a nonlinear regression problem with two informative
// features (0 and 1) and the rest noise.
func synth(n, d int, rng *rand.Rand) (x [][]float64, y []float64) {
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.Float64()
		}
		t := 3*row[0]*row[0] + math.Sin(4*row[1]) + 0.05*rng.NormFloat64()
		x = append(x, row)
		y = append(y, t)
	}
	return x, y
}

func TestAllModelsTrainAndPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := synth(120, 6, rng)
	xt, yt := synth(40, 6, rng)
	baseline := stat.Variance(yt) // predicting the mean scores ≈ this MSE
	for _, m := range All() {
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		pred := make([]float64, len(xt))
		for i := range xt {
			pred[i] = m.Predict(xt[i])
			if math.IsNaN(pred[i]) || math.IsInf(pred[i], 0) {
				t.Fatalf("%s: bad prediction", m.Name())
			}
		}
		mse := stat.MSE(pred, yt)
		if mse > 2*baseline {
			t.Fatalf("%s: MSE %v worse than 2× mean-baseline %v", m.Name(), mse, baseline)
		}
	}
}

func TestModelNames(t *testing.T) {
	want := []string{"GBRT", "SVR", "LinearR", "LR", "KNNAR"}
	models := All()
	if len(models) != len(want) {
		t.Fatalf("All() returned %d models", len(models))
	}
	for i, m := range models {
		if m.Name() != want[i] {
			t.Fatalf("model %d = %q; want %q", i, m.Name(), want[i])
		}
	}
}

func TestGBRTBeatsLinearOnNonlinearData(t *testing.T) {
	// The Figure 16 phenomenon: GBRT has the lowest error of the five on a
	// nonlinear response surface.
	rng := rand.New(rand.NewSource(2))
	x, y := synth(200, 8, rng)
	xt, yt := synth(60, 8, rng)
	mses := map[string]float64{}
	for _, m := range All() {
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		pred := make([]float64, len(xt))
		for i := range xt {
			pred[i] = m.Predict(xt[i])
		}
		mses[m.Name()] = stat.MSE(pred, yt)
	}
	for name, mse := range mses {
		if name == "GBRT" {
			continue
		}
		if mses["GBRT"] > mse {
			t.Fatalf("GBRT MSE %v not lowest: %s has %v", mses["GBRT"], name, mse)
		}
	}
}

func TestGBRTFeatureImportance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := synth(200, 6, rng)
	g := NewGBRT(GBRTOptions{})
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	imp := g.FeatureImportance()
	if len(imp) != 6 {
		t.Fatalf("importance length %d", len(imp))
	}
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatal("negative importance")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v", sum)
	}
	// Features 0 and 1 are informative; the rest are noise.
	for j := 2; j < 6; j++ {
		if imp[j] > imp[0] || imp[j] > imp[1] {
			t.Fatalf("noise feature %d ranked above informative: %v", j, imp)
		}
	}
}

func TestLinearRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		a, b := rng.Float64(), rng.Float64()
		x = append(x, []float64{a, b})
		y = append(y, 2*a-3*b+0.5)
	}
	l := NewLinear()
	if err := l.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := l.Predict([]float64{1, 1}); math.Abs(got-(-0.5)) > 1e-4 {
		t.Fatalf("Predict(1,1) = %v; want -0.5", got)
	}
	if got := l.Predict([]float64{0, 0}); math.Abs(got-0.5) > 1e-4 {
		t.Fatalf("Predict(0,0) = %v; want 0.5", got)
	}
}

func TestKNNExactOnTrainingPoints(t *testing.T) {
	x := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	y := []float64{1, 2, 3, 4}
	k := NewKNN(1)
	if err := k.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got := k.Predict(x[i]); math.Abs(got-y[i]) > 1e-6 {
			t.Fatalf("KNN(1) at training point %d = %v; want %v", i, got, y[i])
		}
	}
	// Default k.
	if NewKNN(0).k != 5 {
		t.Fatal("default k should be 5")
	}
}

func TestSVRFitsLinearTrend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var x [][]float64
	var y []float64
	for i := 0; i < 150; i++ {
		a := rng.Float64()
		x = append(x, []float64{a})
		y = append(y, 10*a+5)
	}
	s := NewSVR()
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.2, 0.5, 0.8} {
		if got := s.Predict([]float64{q}); math.Abs(got-(10*q+5)) > 1.5 {
			t.Fatalf("SVR(%v) = %v; want ≈%v", q, got, 10*q+5)
		}
	}
}

func TestLogisticStaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := synth(100, 4, rng)
	l := NewLogistic()
	if err := l.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	lo, hi := stat.Min(y), stat.Max(y)
	span := hi - lo
	for i := 0; i < 50; i++ {
		q := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		p := l.Predict(q)
		if p < lo-0.2*span || p > hi+0.2*span {
			t.Fatalf("logistic prediction %v far outside target range [%v, %v]", p, lo, hi)
		}
	}
}

func TestFitErrorsPropagate(t *testing.T) {
	for _, m := range All() {
		if err := m.Fit(nil, nil); err == nil {
			t.Fatalf("%s accepted empty training set", m.Name())
		}
		if err := m.Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
			t.Fatalf("%s accepted ragged training set", m.Name())
		}
	}
}

func TestGBRTConstantTarget(t *testing.T) {
	x := [][]float64{{0}, {0.5}, {1}, {0.2}}
	y := []float64{7, 7, 7, 7}
	g := NewGBRT(GBRTOptions{})
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if got := g.Predict([]float64{0.3}); math.Abs(got-7) > 1e-9 {
		t.Fatalf("constant-target prediction %v", got)
	}
}
