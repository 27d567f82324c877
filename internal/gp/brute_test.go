package gp

import (
	"math"
	"math/rand"
	"testing"

	"locat/internal/stat"
)

// gaussJordan returns the inverse and the determinant of the square matrix
// a, by Gauss–Jordan elimination with partial pivoting on a copy.
func gaussJordan(a [][]float64) (inv [][]float64, det float64) {
	n := len(a)
	m, inv := make([][]float64, n), make([][]float64, n)
	for i := range a {
		m[i] = append([]float64(nil), a[i]...)
		inv[i] = make([]float64, n)
		inv[i][i] = 1
	}
	det = 1
	for c := range n {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(m[r][c]) > math.Abs(m[p][c]) {
				p = r
			}
		}
		if p != c {
			m[p], m[c], inv[p], inv[c], det = m[c], m[p], inv[c], inv[p], -det
		}
		piv := m[c][c]
		det *= piv
		for j := range n {
			m[c][j] /= piv
			inv[c][j] /= piv
		}
		for r := range n {
			if f := m[r][c]; r != c && f != 0 {
				for j := range n {
					m[r][j] -= f * m[c][j]
					inv[r][j] -= f * inv[c][j]
				}
			}
		}
	}
	return inv, det
}

// closeRel reports whether a and b agree to tol relative to the larger.
func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestPosteriorMatchesBruteForce: for n = 1..6 training points, with and
// without a near-duplicate of the first row (1e-7 away), under three
// hyperparameter settings, Predict, PredictBatch, LogMarginalLikelihood and
// TrainSet.LogPosterior less the prior agree to 1e-10 relative with the
// posterior written out from an explicit Gauss–Jordan inverse and
// determinant of K = k(X,X) + (σ_n² + 1e-8)·I: mean k*ᵀK⁻¹z·yStd + yMean,
// variance (σ_f² − k*ᵀK⁻¹k*)·yStd² and evidence
// −½zᵀK⁻¹z − ½log|K| − n/2·log 2π over the standardized targets z, at the
// training rows themselves and at fresh points. The evidence is the model's
// and the sampler's, bit for bit.
func TestPosteriorMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	hypers := []Hyper{
		DefaultHyper(),
		{LogLen: math.Log(0.9), LogSignal: 0.4, LogNoise: math.Log(0.3)},
		{LogLen: math.Log(0.2), LogSignal: -0.3, LogNoise: math.Log(0.05)},
	}
	const d, tol = 3, 1e-10
	for n := 1; n <= 6; n++ {
		for _, near := range []bool{false, true} {
			xs, ys := batchTrainingSet(n, d, rng)
			for i := range ys {
				ys[i] += 3 // keep the means away from zero, where a relative check says nothing
			}
			if near && n > 1 {
				xs[n-1] = append([]float64(nil), xs[0]...)
				xs[n-1][1] += 1e-7
			}
			cands, _ := batchTrainingSet(4, d, rng)
			cands = append(cands, xs...)
			yMean, yStd := stat.Mean(ys), stat.StdDev(ys)
			if yStd < 1e-12 {
				yStd = 1
			}
			z := make([]float64, n)
			for i, y := range ys {
				z[i] = (y - yMean) / yStd
			}
			ts, err := NewTrainSet(xs, ys, 1)
			if err != nil {
				t.Fatal(err)
			}
			var ws FitWorkspace
			for _, h := range hypers {
				g, err := Fit(xs, ys, h)
				if err != nil {
					t.Fatal(err)
				}
				s2, tl2 := h.Signal2(), 2*h.Len()*h.Len()
				kern := func(a, b []float64) float64 {
					var r float64
					for f := range a {
						r += (a[f] - b[f]) * (a[f] - b[f])
					}
					return s2 * math.Exp(-r/tl2)
				}
				k := make([][]float64, n)
				for i := range k {
					k[i] = make([]float64, n)
					for j := range k[i] {
						k[i][j] = kern(xs[i], xs[j])
					}
					k[i][i] += h.Noise2() + 1e-8
				}
				inv, det := gaussJordan(k)
				quad := 0.0
				for i := range n {
					for j := range n {
						quad += z[i] * inv[i][j] * z[j]
					}
				}
				wantML := -0.5*quad - 0.5*math.Log(det) - 0.5*float64(n)*math.Log(2*math.Pi)
				got := g.LogMarginalLikelihood()
				if !closeRel(got, wantML, tol) {
					t.Fatalf("n=%d near=%v %+v: log evidence %v, brute force %v", n, near, h, got, wantML)
				}
				if post := ts.LogPosterior(h, &ws, 1); post != got+logPrior(h) || !closeRel(post-logPrior(h), wantML, tol) {
					t.Fatalf("n=%d near=%v %+v: log posterior %v less the prior %v, model's evidence %v, brute force %v",
						n, near, h, post, post-logPrior(h), got, wantML)
				}
				means, vars := g.PredictBatch(cands, nil)
				for c, x := range cands {
					ks := make([]float64, n)
					for i := range ks {
						ks[i] = kern(x, xs[i])
					}
					var mu, q float64
					for i := range n {
						for j := range n {
							mu += ks[i] * inv[i][j] * z[j]
							q += ks[i] * inv[i][j] * ks[j]
						}
					}
					wantMu, wantVar := mu*yStd+yMean, max(s2-q, 1e-12)*yStd*yStd
					gotMu, gotVar := g.Predict(x)
					for _, p := range [][2]float64{{gotMu, means[c]}, {gotVar, vars[c]}} {
						if p[0] != p[1] {
							t.Fatalf("n=%d near=%v %+v point %d: Predict %v, PredictBatch %v", n, near, h, c, p[0], p[1])
						}
					}
					if !closeRel(gotMu, wantMu, tol) || !closeRel(gotVar, wantVar, tol) {
						t.Fatalf("n=%d near=%v %+v point %d: mean %v variance %v, brute force %v and %v",
							n, near, h, c, gotMu, gotVar, wantMu, wantVar)
					}
				}
			}
		}
	}
}
