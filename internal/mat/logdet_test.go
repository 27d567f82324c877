package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// logCases returns the diagonal values LogDet is held to: every power of
// two, subnormals among them; 0.5 and √2/2 at every seventh exponent with
// their neighbours up to two ulps away; the extremes of the normal and
// subnormal ranges; and random bit patterns of every exponent.
func logCases(rng *rand.Rand) []float64 {
	var vs []float64
	for e := -1074; e <= 1023; e++ {
		vs = append(vs, math.Ldexp(1, e))
	}
	for e := -1073; e <= 1024; e += 7 {
		for _, c := range []float64{0.5, 7.07106781186547524401e-01} {
			v := math.Ldexp(c, e)
			lo, hi := math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))
			vs = append(vs, v, lo, hi, math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1)))
		}
	}
	vs = append(vs, 5e-324, math.Float64frombits(0x000FFFFFFFFFFFFF), 0x1p-1022, math.MaxFloat64, 1,
		math.Nextafter(1, 0), math.Nextafter(1, 2), math.E, math.Sqrt2)
	for range 4000 {
		vs = append(vs, math.Float64frombits(rng.Uint64()&0x7FEFFFFFFFFFFFFF))
	}
	return vs
}

// TestLogDetMatchesLogs: LogDet is 2·Σ math.Log(U_ii), added in ascending
// i, bit for bit, for every n up to 13 over diagonals drawn from logCases,
// with and without a zero, negative, infinite or NaN term, and for real
// factors. The one subtest, Go, names the path checked: LogDet is the Go
// math.Log loop on every host.
func TestLogDetMatchesLogs(t *testing.T) {
	t.Run("Go", testLogDetMatchesLogs)
}

func testLogDetMatchesLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	vs := logCases(rng)
	for n := 1; n <= 13; n++ {
		for k := range 60 {
			d := make([]float64, n)
			for i := range d {
				d[i] = vs[rng.Intn(len(vs))]
			}
			if k%6 == 5 {
				d[rng.Intn(n)] = []float64{0, -2, math.Inf(1), math.NaN()}[k%4]
			}
			checkLogDet(t, d)
		}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64()}
		}
		c, err := NewCholesky(seGram(pts, 0.3, 1e-4))
		if err != nil {
			t.Fatal(err)
		}
		d := make([]float64, n)
		for i := range d {
			d[i] = c.u.At(i, i)
		}
		if got, want := c.LogDet(), logDetRef(d); got != want {
			t.Fatalf("n=%d: LogDet %v, want %v", n, got, want)
		}
	}
}

// logDetRef is 2·Σ math.Log(d_i), added in ascending i.
func logDetRef(d []float64) float64 {
	var s float64
	for _, v := range d {
		s += math.Log(v)
	}
	return 2 * s
}

// checkLogDet holds the LogDet of a factor whose diagonal is d (in storage
// of stride n+2, every other entry NaN) to logDetRef bit for bit, NaN for
// NaN.
func checkLogDet(t testing.TB, d []float64) {
	t.Helper()
	n := len(d)
	u := NewDense(n, n+2, nil)
	for i := range u.data {
		u.data[i] = math.NaN() // must never be read
	}
	for i, v := range d {
		u.Set(i, i, v)
	}
	got, want := (&Cholesky{u: u}).LogDet(), logDetRef(d)
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("diagonal %v: LogDet %v, want %v", d, got, want)
	}
}

// FuzzLogDet holds LogDet over a fuzzed diagonal (n ≤ 40) to logDetRef.
func FuzzLogDet(f *testing.F) {
	row := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(row(1.3, 0.2, 7e-310, 0.70710678118654746, 0.70710678118654757, 1e300, 2))
	f.Add(row(5e-324, 0.5, 1, math.MaxFloat64))
	f.Add(row(0.3, 0, -1, math.Inf(1), math.NaN()))
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := make([]float64, min(len(raw)/8, 40))
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if len(d) == 0 {
			t.Skip()
		}
		checkLogDet(t, d)
	})
}
