package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// distancePaths returns the distance passes a test can run: this host's
// (the lane kernel where the processor has one) and the Go path.
func distancePaths() []struct {
	name string
	f    func(t, x, d2 []float64)
} {
	return []struct {
		name string
		f    func(t, x, d2 []float64)
	}{{"Host", distances}, {"Go", distancesGo}}
}

// onDistances runs fn with f as the distance pass.
func onDistances(f func(t, x, d2 []float64), fn func()) {
	old := distances
	distances = f
	defer func() { distances = old }()
	fn()
}

// checkDistances loads rows into Columns and requires every distance from
// every row of xs, on each path, to be sqDist's bit for bit (or NaN where
// sqDist is NaN: a NaN's payload depends on which operand the compiler puts
// first).
func checkDistances(t *testing.T, rows, xs [][]float64) {
	t.Helper()
	var c Columns
	c.Load(&GP{x: rows})
	n := len(rows)
	d2 := make([]float64, len(xs)*n)
	for _, p := range distancePaths() {
		onDistances(p.f, func() { c.Distances(xs, d2) })
		for i, x := range xs {
			for j, r := range rows {
				g, w := d2[i*n+j], sqDist(r, x)
				if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("%s path, n=%d d=%d: candidate %d to row %d = %v (%#x), sqDist %v (%#x)",
						p.name, n, len(x), i, j, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

// TestDistancesMatchSqDist: for every n up to 70 (every remainder of the
// lane kernel's blocks of eight and four) and every d up to 40, both paths
// give sqDist's distances bit for bit, over candidates that include a
// training row itself and a near-duplicate of one.
func TestDistancesMatchSqDist(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for n := 1; n <= 70; n++ {
		for d := 1; d <= 40; d++ {
			rows, xs := make([][]float64, n), make([][]float64, 3)
			for i := range rows {
				rows[i] = make([]float64, d)
				for f := range rows[i] {
					rows[i][f] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(9)-4))
				}
			}
			xs[0] = rows[n/2]
			xs[1] = append([]float64(nil), rows[0]...)
			xs[1][d-1] = math.Nextafter(xs[1][d-1], 1)
			xs[2] = make([]float64, d)
			for f := range xs[2] {
				xs[2][f] = rng.Float64()
			}
			checkDistances(t, rows, xs)
		}
	}
}

// FuzzDistances holds both paths to sqDist over fuzzed shapes and values:
// n ≤ 70 training rows of d ≤ 40 features and two candidates, each value a
// byte mapped to an inexact fraction and multiplied by scale, which takes
// them to subnormals, overflow, infinities and NaN.
func FuzzDistances(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(5), uint8(3), 1.0)
	f.Add(make([]byte, 64), uint8(17), uint8(1), 1e-160)
	f.Add([]byte{0, 255, 1, 254, 127, 128, 3, 9, 77}, uint8(70), uint8(40), 1e154)
	f.Fuzz(func(t *testing.T, raw []byte, nb, db uint8, scale float64) {
		n, d := 1+int(nb)%70, 1+int(db)%40
		if len(raw) == 0 {
			t.Skip()
		}
		at := 0
		vec := func() []float64 {
			v := make([]float64, d)
			for f := range v {
				v[f] = (float64(raw[at%len(raw)]) - 127.5) / 37 * scale
				at++
			}
			return v
		}
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = vec()
		}
		checkDistances(t, rows, [][]float64{vec(), vec()})
	})
}

// BenchmarkDistances measures one EI chunk's distance pass, 64 candidates
// of 9 features (bo's benchmark shape) against n training rows, on this
// host's path and on the Go path, and reports the cost of one distance.
func BenchmarkDistances(b *testing.B) {
	const m, d = 64, 9
	rng := rand.New(rand.NewSource(92))
	point := func() []float64 {
		v := make([]float64, d)
		for f := range v {
			v[f] = rng.Float64()
		}
		return v
	}
	xs := make([][]float64, m)
	for i := range xs {
		xs[i] = point()
	}
	for _, n := range []int{49, 60, 128} {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = point()
		}
		var c Columns
		c.Load(&GP{x: rows})
		d2 := make([]float64, m*n)
		for _, p := range distancePaths() {
			b.Run(fmt.Sprintf("%s/n=%d", p.name, n), func(b *testing.B) {
				onDistances(p.f, func() {
					for b.Loop() {
						c.Distances(xs, d2)
					}
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m*n), "ns/distance")
			})
		}
	}
}
