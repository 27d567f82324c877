package gp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// kernelModes returns the settings of useVecKernel a test can run under: the
// scalar fallback everywhere, the vector kernel where the start-up gate let
// it on.
func kernelModes(t testing.TB) []bool {
	if !useVecKernel {
		t.Log("vector kernel off on this host; checking the scalar fallback only")
		return []bool{false}
	}
	return []bool{false, true}
}

// withVecKernel sets useVecKernel for the rest of the test.
func withVecKernel(t testing.TB, on bool) {
	old := useVecKernel
	useVecKernel = on
	t.Cleanup(func() { useVecKernel = old })
}

// checkKernelRow compares kernelRow with s2·math.Exp(-d/tl2) bit for bit,
// writing over a copy of d2 in place as KernelMeans does.
func checkKernelRow(t testing.TB, d2 []float64, s2, tl2 float64) {
	t.Helper()
	got := append([]float64(nil), d2...)
	kernelRow(got, got, s2, tl2)
	for j, d := range d2 {
		want := s2 * math.Exp(-d/tl2)
		if math.Float64bits(got[j]) != math.Float64bits(want) {
			t.Fatalf("vec=%v n=%d j=%d d=%g s2=%g tl2=%g: got %g (%#x), want %g (%#x)",
				useVecKernel, len(d2), j, d, s2, tl2, got[j], math.Float64bits(got[j]), want, math.Float64bits(want))
		}
	}
}

// TestKernelRowMatchesExp: every row length up to 67 (every tail and block
// count), ordinary distances mixed with zero, subnormal, tiny, huge, ±Inf,
// NaN and negative ones and with distances on and past the vector path's ±700
// bound, over degenerate and ordinary length and signal scales, under the
// vector kernel and the forced fallback.
func TestKernelRowMatchesExp(t *testing.T) {
	specials := []float64{0, 5e-324, 1e-300, 1e300, math.Inf(1), math.Inf(-1), math.NaN(), -3}
	tl2s := []float64{5e-324, 0, 1e-300, 1, 0.32, math.Inf(1)}
	s2s := []float64{1, 5e-324, 1e300, 0.7}
	for _, vec := range kernelModes(t) {
		withVecKernel(t, vec)
		rng := rand.New(rand.NewSource(9))
		for n := 0; n <= 67; n++ {
			for _, tl2 := range tl2s {
				for _, s2 := range s2s {
					d2 := make([]float64, n)
					for j := range d2 {
						switch rng.Intn(10) {
						case 0:
							d2[j] = specials[rng.Intn(len(specials))]
						case 1: // at the bound and just past it
							d2[j] = 700 * tl2 * (1 + float64(rng.Intn(3)-1)*1e-15)
						default:
							d2[j] = rng.ExpFloat64() * 3
						}
					}
					checkKernelRow(t, d2, s2, tl2)
				}
			}
		}
	}
}

// FuzzKernelRow holds kernelRow to s2·math.Exp(-d/tl2) on any row of bit
// patterns, under both settings of the vector kernel.
func FuzzKernelRow(f *testing.F) {
	row := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(row(0.1, 2, 3.5, 0.25, 7, 1e-9), 1.0, 0.32)
	f.Add(row(0, 5e-324, 1e-300, 1e300, math.Inf(1), math.NaN(), 700, 701, 1), 1e300, 1.0)
	f.Add(row(1, 2, 3, 4, 5), 5e-324, 5e-324)
	f.Fuzz(func(t *testing.T, raw []byte, s2, tl2 float64) {
		d2 := make([]float64, len(raw)/8)
		for j := range d2 {
			d2[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
		}
		for _, vec := range kernelModes(t) {
			withVecKernel(t, vec)
			checkKernelRow(t, d2, s2, tl2)
		}
	})
}

// BenchmarkKernelRow maps 64 rows of 60 squared distances, KernelMeans' shape
// for a 60-observation model, and reports the cost of one kernel value.
func BenchmarkKernelRow(b *testing.B) {
	const rows, n = 64, 60
	rng := rand.New(rand.NewSource(3))
	d2 := make([]float64, rows*n)
	for i := range d2 {
		d2[i] = rng.Float64() * 3
	}
	dst := make([]float64, len(d2))
	for _, vec := range kernelModes(b) {
		name := "scalar"
		if vec {
			name = "vector"
		}
		b.Run(name, func(b *testing.B) {
			withVecKernel(b, vec)
			for b.Loop() {
				for i := 0; i < len(d2); i += n {
					kernelRow(dst[i:i+n], d2[i:i+n], 1.3, 0.32)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*n), "ns/value")
		})
	}
}

// TestKernelTailMatchesExp: a row's last one to three values, after zero,
// one and two blocks of four, go through the padded lane block and come out
// as s2·math.Exp(-d/tl2) bit for bit, and a tail with a NaN or an argument
// past the ±700 bound, which the lanes refuse, does too, through math.Exp.
func TestKernelTailMatchesExp(t *testing.T) {
	tails := [][]float64{
		{0.3}, {0.3, 1.7}, {0.3, 1.7, 2.9}, {0}, {5e-324, 1e-300, 3},
		{math.NaN()}, {0.3, math.NaN()}, {0.3, 1.7, 701 * 0.32},
		{math.Inf(1), 1}, {-701 * 0.32}, {700 * 0.32, 1},
	}
	for _, vec := range kernelModes(t) {
		withVecKernel(t, vec)
		for _, blocks := range []int{0, 1, 2} {
			for _, tail := range tails {
				d2 := make([]float64, 4*blocks, 4*blocks+len(tail))
				for j := range d2 {
					d2[j] = 0.1 * float64(j+1)
				}
				checkKernelRow(t, append(d2, tail...), 1.3, 0.32)
			}
		}
	}
	if useVecKernel {
		var dst [3]float64
		if kernelTail(dst[:], []float64{0.3, 701 * 0.32, 1}, 1, 0.32) || kernelTail(dst[:1], []float64{math.NaN()}, 1, 1) {
			t.Fatal("the padded lane block took an argument out of range")
		}
		if !kernelTail(dst[:], []float64{0.3, 700 * 0.32, 1}, 1, 0.32) {
			t.Fatal("the padded lane block refused arguments in range")
		}
	}
}

// scalePaths returns the rescales a test can run: this host's (the lane
// kernel where the processor has one) and the Go path.
func scalePaths() []struct {
	name string
	f    func(dst, src []float64, s float64)
} {
	return []struct {
		name string
		f    func(dst, src []float64, s float64)
	}{{"Host", scale}, {"Go", scaleGo}}
}

// TestScaleMatchesProduct: every length up to 19, in place and into another
// slice, over ordinary, subnormal, huge, infinite and NaN values and
// factors, both paths give s·src[j] bit for bit (NaN for NaN: its payload
// depends on the operand order).
func TestScaleMatchesProduct(t *testing.T) {
	vals := []float64{0.7, -3, 5e-324, 1e-300, 1e300, math.Inf(1), math.NaN(), 0, math.Copysign(0, -1), 1.0000000000000002}
	rng := rand.New(rand.NewSource(12))
	for _, p := range scalePaths() {
		for n := 0; n <= 19; n++ {
			for _, s := range []float64{1, 1.3, 5e-324, 1e300, math.Inf(-1), 0.1} {
				src := make([]float64, n)
				for j := range src {
					src[j] = vals[rng.Intn(len(vals))] * (1 + rng.Float64())
				}
				into, inPlace := make([]float64, n), append([]float64(nil), src...)
				p.f(into, src, s)
				p.f(inPlace, inPlace, s)
				for j, c := range src {
					w := s * c
					for _, g := range []float64{into[j], inPlace[j]} {
						if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
							t.Fatalf("%s path n=%d j=%d: %v × %v = %v, want %v", p.name, n, j, s, c, g, w)
						}
					}
				}
			}
		}
	}
}

// TestLogPriorMatchesGeneralForm: the prior with its logarithms taken once
// is the general N(μ, σ) form at σ = 1, with every logarithm taken at each
// call, bit for bit.
func TestLogPriorMatchesGeneralForm(t *testing.T) {
	pdf := func(x, mu, sigma float64) float64 {
		d := (x - mu) / sigma
		return -0.5*d*d - math.Log(sigma) - 0.5*math.Log(2*math.Pi)
	}
	rng := rand.New(rand.NewSource(13))
	for range 2000 {
		h := Hyper{LogLen: rng.NormFloat64() * 3, LogSignal: rng.NormFloat64() * 3, LogNoise: rng.NormFloat64() * 3}
		want := 0.0
		want += pdf(h.LogLen, math.Log(0.4), 1.0)
		want += pdf(h.LogSignal, 0, 1.0)
		want += pdf(h.LogNoise, math.Log(0.1), 1.0)
		if got := logPrior(h); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v: logPrior %v, general form %v", h, got, want)
		}
	}
}
