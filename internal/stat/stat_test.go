package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v; want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance = %v; want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Fatalf("StdDev = %v; want 2", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-input statistics should be 0")
	}
}

func TestCV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := CV(xs); !almostEqual(got, 0.4, 1e-12) {
		t.Fatalf("CV = %v; want 0.4", got)
	}
	if CV([]float64{0, 0}) != 0 {
		t.Fatal("CV of zero-mean input should be 0")
	}
	if CV([]float64{5, 5, 5}) != 0 {
		t.Fatal("CV of constant input should be 0")
	}
}

func TestMSE(t *testing.T) {
	if got := MSE([]float64{1, 2, 3}, []float64{1, 2, 5}); !almostEqual(got, 4.0/3, 1e-12) {
		t.Fatalf("MSE = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	MSE([]float64{1}, []float64{1, 2})
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatal("Min/Max wrong")
	}
}

func TestRanksSimple(t *testing.T) {
	r := Ranks([]float64{30, 10, 20})
	want := []float64{3, 1, 2}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v; want %v", r, want)
		}
	}
}

func TestRanksTies(t *testing.T) {
	r := Ranks([]float64{1, 2, 2, 3})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v; want %v", r, want)
		}
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if got := Pearson(x, y); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v; want 1", got)
	}
	yneg := []float64{8, 6, 4, 2}
	if got := Pearson(x, yneg); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v; want -1", got)
	}
	if Pearson(x, []float64{5, 5, 5, 5}) != 0 {
		t.Fatal("Pearson vs constant should be 0")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Spearman is 1 for any monotone-increasing relationship, even nonlinear.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 8, 27, 64, 125}
	if got := Spearman(x, y); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Spearman = %v; want 1", got)
	}
	yd := []float64{125, 64, 27, 8, 1}
	if got := Spearman(x, yd); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("Spearman = %v; want -1", got)
	}
}

func TestSpearmanIndependentNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = rng.Float64()
	}
	if got := Spearman(x, y); math.Abs(got) > 0.08 {
		t.Fatalf("Spearman of independent samples = %v; want ≈0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Fatal("extreme quantiles wrong")
	}
	if got := Quantile(xs, 0.5); !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("median = %v; want 2.5", got)
	}
}

func TestNormPDFCDF(t *testing.T) {
	if !almostEqual(NormPDF(0), 1/math.Sqrt(2*math.Pi), 1e-12) {
		t.Fatal("NormPDF(0) wrong")
	}
	if !almostEqual(NormCDF(0), 0.5, 1e-12) {
		t.Fatal("NormCDF(0) wrong")
	}
	if !almostEqual(NormCDF(1.959963985), 0.975, 1e-6) {
		t.Fatal("NormCDF(1.96) wrong")
	}
	// Symmetry.
	if !almostEqual(NormCDF(-1.3)+NormCDF(1.3), 1, 1e-12) {
		t.Fatal("NormCDF symmetry broken")
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, d := 10, 3
	pts := LatinHypercube(n, d, rng)
	if len(pts) != n {
		t.Fatalf("got %d points", len(pts))
	}
	for j := 0; j < d; j++ {
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			v := pts[i][j]
			if v < 0 || v >= 1 {
				t.Fatalf("point outside unit cube: %v", v)
			}
			s := int(v * float64(n))
			if seen[s] {
				t.Fatalf("stratum %d hit twice in dim %d", s, j)
			}
			seen[s] = true
		}
	}
}

func TestLatinHypercubePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LatinHypercube(0, 3, rand.New(rand.NewSource(1)))
}

// Property: Spearman is invariant under any strictly monotone transform of
// either argument, and always lies in [-1, 1].
func TestSpearmanProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		s := Spearman(x, y)
		if s < -1-1e-12 || s > 1+1e-12 {
			return false
		}
		// Monotone transform exp(x) preserves ranks exactly.
		xt := make([]float64, n)
		for i := range x {
			xt[i] = math.Exp(x[i])
		}
		return almostEqual(Spearman(xt, y), s, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: CV is scale invariant for positive data (CV(c·x) = CV(x)).
func TestCVScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 0.1 + rng.Float64()*10
		}
		c := 0.5 + rng.Float64()*5
		scaled := make([]float64, n)
		for i := range xs {
			scaled[i] = c * xs[i]
		}
		return almostEqual(CV(scaled), CV(xs), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is bounded by min and max and monotone in q.
func TestQuantileProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < Min(xs)-1e-12 || v > Max(xs)+1e-12 || v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson is invariant under positive affine transforms of either
// argument and flips sign under negation.
func TestPearsonAffineInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r := Pearson(x, y)
		a := 0.5 + rng.Float64()*3
		b := rng.NormFloat64()
		xt := make([]float64, n)
		xn := make([]float64, n)
		for i := range x {
			xt[i] = a*x[i] + b
			xn[i] = -x[i]
		}
		return almostEqual(Pearson(xt, y), r, 1e-9) && almostEqual(Pearson(xn, y), -r, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ranks are a permutation of 1..n when values are distinct, and
// always sum to n(n+1)/2.
func TestRanksSumInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		var sum float64
		for _, r := range Ranks(xs) {
			sum += r
		}
		return almostEqual(sum, float64(n*(n+1))/2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: LHS marginals are uniform — the per-dimension mean of n samples
// is within a few standard errors of 0.5.
func TestLHSMarginalUniformity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n, d = 200, 4
	pts := LatinHypercube(n, d, rng)
	for j := 0; j < d; j++ {
		var mean float64
		for i := 0; i < n; i++ {
			mean += pts[i][j]
		}
		mean /= n
		if math.Abs(mean-0.5) > 0.05 {
			t.Fatalf("dim %d mean %v far from 0.5", j, mean)
		}
	}
}

// oldLatinHypercube is LatinHypercube before it became the allocating wrapper
// over LatinHypercubeInto.
func oldLatinHypercube(n, d int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
	}
	perm := make([]int, n)
	for j := 0; j < d; j++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for i := 0; i < n; i++ {
			out[i][j] = (float64(perm[i]) + rng.Float64()) / float64(n)
		}
	}
	return out
}

// TestLatinHypercubeIntoMatchesOldBody: the wrapper and the fill into longer,
// caller-owned rows draw the old points from the old number of rng values,
// and the fill leaves the columns past d alone.
func TestLatinHypercubeIntoMatchesOldBody(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		for _, d := range []int{1, 5, 38} {
			n := 1 + int(seed)*7%53
			oldRng, newRng, intoRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			want := oldLatinHypercube(n, d, oldRng)
			got := LatinHypercube(n, d, newRng)
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = make([]float64, d+2)
				rows[i][d], rows[i][d+1] = -1, -2
			}
			perm := make([]int, n)
			perm[0] = 99 // scratch from an earlier round
			LatinHypercubeInto(rows, d, perm, intoRng)
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] || rows[i][j] != want[i][j] {
						t.Fatalf("seed %d n=%d d=%d point %d[%d]: wrapper %v, into %v, want %v", seed, n, d, i, j, got[i][j], rows[i][j], want[i][j])
					}
				}
				if len(got[i]) != d || rows[i][d] != -1 || rows[i][d+1] != -2 {
					t.Fatalf("seed %d: row %d shape or tail disturbed", seed, i)
				}
			}
			if a, b, c := oldRng.Int63(), newRng.Int63(), intoRng.Int63(); a != b || a != c {
				t.Fatalf("seed %d n=%d d=%d: generator state diverged", seed, n, d)
			}
		}
	}
}
