package kpca

import (
	"math"
	"math/rand"
	"testing"
)

func ring(n int, rng *rand.Rand) [][]float64 {
	// Points on a noisy circle: 1-dimensional manifold in 2D that linear PCA
	// cannot unfold but KPCA separates by radius.
	out := make([][]float64, n)
	for i := range out {
		theta := rng.Float64() * 2 * math.Pi
		r := 1 + rng.NormFloat64()*0.02
		out[i] = []float64{r * math.Cos(theta), r * math.Sin(theta)}
	}
	return out
}

func TestKernelEval(t *testing.T) {
	a, b := []float64{0, 0}, []float64{1, 0}
	g := Kernel{Kind: Gaussian, Gamma: 1}
	if math.Abs(g.Eval(a, b)-math.Exp(-1)) > 1e-12 {
		t.Fatal("gaussian kernel wrong")
	}
	if g.Eval(a, a) != 1 {
		t.Fatal("gaussian self-similarity should be 1")
	}
	p := Kernel{Kind: Perceptron}
	if math.Abs(p.Eval(a, b)+1) > 1e-12 {
		t.Fatal("perceptron kernel wrong")
	}
	poly := Kernel{Kind: Polynomial, Degree: 2}
	if math.Abs(poly.Eval([]float64{1, 1}, []float64{2, 0})-9) > 1e-12 {
		t.Fatal("polynomial kernel wrong: (2+1)^2 = 9")
	}
	// Default degree 3, default gamma 1/d.
	poly0 := Kernel{Kind: Polynomial}
	if math.Abs(poly0.Eval([]float64{1}, []float64{1})-8) > 1e-12 {
		t.Fatal("default polynomial degree should be 3")
	}
	if Gaussian.String() != "gaussian" || Perceptron.String() != "perceptron" || Polynomial.String() != "polynomial" {
		t.Fatal("KernelKind.String wrong")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, Kernel{Kind: Gaussian}, Options{}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Fit([][]float64{{1}}, Kernel{Kind: Gaussian}, Options{}); err == nil {
		t.Fatal("single sample accepted")
	}
	if _, err := Fit([][]float64{{1}, {1, 2}}, Kernel{Kind: Gaussian}, Options{}); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestComponentsOrderedAndPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := ring(40, rng)
	ev, err := Fit(x, Kernel{Kind: Gaussian, Gamma: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) == 0 {
		t.Fatal("no components kept")
	}
	for i, l := range ev {
		if l <= 0 {
			t.Fatalf("eigenvalue %d = %v; want > 0", i, l)
		}
		if i > 0 && l > ev[i-1]+1e-9 {
			t.Fatal("eigenvalues not descending")
		}
	}
}

func TestNonGaussianKernelsFit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := ring(25, rng)
	for _, k := range []Kernel{{Kind: Perceptron}, {Kind: Polynomial}} {
		ev, err := Fit(x, k, Options{})
		if err != nil {
			t.Fatalf("%v: %v", k.Kind, err)
		}
		if len(ev) == 0 {
			t.Fatalf("%v: no components", k.Kind)
		}
		for _, l := range ev {
			if math.IsNaN(l) || math.IsInf(l, 0) || l <= 0 {
				t.Fatalf("%v: bad eigenvalue in %v", k.Kind, ev)
			}
		}
	}
}

// Property: the kept-component count under the relative-eigenvalue rule
// stabilizes as sample count grows (the Figure 9 phenomenon): counts at
// n=40 and n=60 from the same distribution differ by at most a few.
func TestComponentCountStabilizes(t *testing.T) {
	count := func(n int, seed int64) int {
		rng := rand.New(rand.NewSource(seed))
		x := make([][]float64, n)
		for i := range x {
			// 3-dimensional latent structure embedded in 6 dims.
			a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
			x[i] = []float64{a, b, c, a + 0.1*b, b - 0.2*c, a * c}
		}
		ev, err := Fit(x, Kernel{Kind: Gaussian}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return len(ev)
	}
	c40 := count(40, 1)
	c60 := count(60, 2)
	if diff := c40 - c60; diff < -4 || diff > 4 {
		t.Fatalf("component count unstable: n=40 → %d, n=60 → %d", c40, c60)
	}
}
