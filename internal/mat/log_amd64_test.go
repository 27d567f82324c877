package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkLogLane runs the lane log on x alone, in lane 0 of a block filled
// up with ones, and requires math.Log's value bit for bit where x is
// positive and finite, and the lanes to refuse it otherwise.
func checkLogLane(t testing.TB, x float64) {
	t.Helper()
	valid := x > 0 && x <= math.MaxFloat64
	got, ok := logSumLanes([]float64{x}, 1, 1)
	if ok != valid {
		t.Fatalf("lane log of %v (%#x): took it %v, want %v", x, math.Float64bits(x), ok, valid)
	}
	if w := math.Log(x); ok && math.Float64bits(got) != math.Float64bits(w) {
		t.Fatalf("lane log of %v (%#x): %v (%#x), want %v (%#x)", x, math.Float64bits(x), got, math.Float64bits(got), w, math.Float64bits(w))
	}
}

// logFused holds arguments whose logarithm changes when one multiply and
// add of archLog's sequence is fused: s·(hfsq+R) + k·Ln2Lo (the first
// three) and s4·(…) + L1 (the last two). Fusing any other pair changed no
// value of 20 million tried: there the separately rounded product is exact
// or its rounding is lost in the sum.
var logFused = []float64{1.4475947961205307, 0.6748956776287702, 0.6868372569394344, 0.675574047082171, 1.4549388854520873}

// logCases returns the values the lane log is held to: logFused; every
// power of two, subnormals among them; 0.5 and √2/2 at every exponent with
// their neighbours up to two ulps away, where archLog's CMPSD decides
// whether to halve; the extremes of the normal and subnormal ranges; and
// random bit patterns of every exponent.
func logCases(rng *rand.Rand) []float64 {
	vs := append([]float64(nil), logFused...)
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

// TestLogLanesMatchLog: the lane log equals math.Log bit for bit on every
// case of logCases, and refuses a zero, a negative value, an infinity or a
// NaN. TestLogDetMatchesLogs takes the same cases through every lane.
func TestLogLanesMatchLog(t *testing.T) {
	if !HasAVX2FMA() {
		t.Skip("no lane log on this host")
	}
	for _, v := range logCases(rand.New(rand.NewSource(75))) {
		checkLogLane(t, v)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), -1, -5e-324, math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN()} {
		checkLogLane(t, v)
	}
}

// TestLogDetMatchesLogs: on this host's path and on the Go path, LogDet is
// 2·Σ math.Log(U_ii), added in ascending i, bit for bit, for every n up to
// 13 (every remainder of the blocks of four) over diagonals drawn from
// logCases, with and without a term the lanes refuse, and for real factors.
func TestLogDetMatchesLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	vs := logCases(rng)
	for _, path := range []string{"Host", "Go"} {
		t.Run(path, func(t *testing.T) {
			if path == "Go" {
				withGoPaths(t)
			}
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
		})
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
	if HasAVX2FMA() {
		valid := true
		for _, v := range d {
			valid = valid && v > 0 && v <= math.MaxFloat64
		}
		if _, ok := logSumLanes(u.data, n+3, n); ok != valid {
			t.Fatalf("diagonal %v: lanes took it %v, want %v", d, ok, valid)
		}
	}
	got, want := (&Cholesky{u: u}).LogDet(), logDetRef(d)
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("lanes %v, diagonal %v: LogDet %v, want %v", HasAVX2FMA(), d, got, want)
	}
}

// FuzzLogDet holds the lane log to math.Log over fuzzed bit patterns, and
// LogDet over a diagonal of them (n ≤ 40) to logDetRef, on this host's path
// and on the Go path.
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
		if HasAVX2FMA() {
			for _, v := range d {
				checkLogLane(t, v)
			}
		}
		checkLogDet(t, d)
		withGoPaths(t)
		checkLogDet(t, d)
	})
}

// BenchmarkLogDet takes the log-determinant of a factor at n = 49 (a cold
// session's mean) and n = 128, on this host's path and on the Go path.
func BenchmarkLogDet(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{49, 128} {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		}
		c, err := NewCholesky(seGram(pts, 0.4, 1e-2))
		if err != nil {
			b.Fatal(err)
		}
		for _, path := range []string{"Host", "Go"} {
			b.Run(fmt.Sprintf("%s/n=%d", path, n), func(b *testing.B) {
				if path == "Go" {
					withGoPaths(b)
				}
				for b.Loop() {
					c.LogDet()
				}
			})
		}
	}
}
