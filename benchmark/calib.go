package main

import (
	"math"
	"sort"
	"time"
)

// calibN is the side of the calibration kernel's matrix. A 160×160
// Cholesky-style sweep is ~1.4 MFLOP of dependent multiply-adds over 200 KB:
// about a millisecond, the same instruction mix as the surrogate's own
// factorisations, and small enough to run between operations.
const calibN = 160

// calibRefMS is the kernel's mean time on the reference box (2 vCPU,
// go1.24, GOMAXPROCS(1)) when nothing else is running. Normalised time is
// raw × calibRefMS ÷ (kernel time measured next to the operation), so a run
// on a slower or busier machine reads as if it ran on the reference box.
// BENCHMARK.json admits no extra keys, so the constant lives here.
const calibRefMS = 0.62

// calibRuns is how many kernel executions make one calibration sample, and
// calibWindow how many samples on each side of an operation go into its
// normalisation factor. While a neighbour on the host is busy every
// execution is slowed, but by anything from 1.3× to 3.4×, so a sample is the
// mean of several executions. (Measured: while sessions took 2.0× their
// quiet time, the mean over executions read 1.95×; medians of five read
// anything in that range.) A sample is also short enough for one stray
// 8 ms scheduling gap to triple it, so the factor uses the median of the
// samples around the operation, which one such sample cannot move.
const (
	calibRuns   = 8
	calibWindow = 3
)

// calibrator times a fixed single-threaded kernel. The harness takes a
// sample before and after every session and every shortOpsPerCalib short
// operations.
type calibrator struct {
	a, l    []float64
	samples []float64
	sink    float64
}

func newCalibrator() *calibrator {
	c := &calibrator{a: make([]float64, calibN*calibN), l: make([]float64, calibN*calibN)}
	// A fixed symmetric positive-definite matrix: strong diagonal plus a
	// smooth off-diagonal, so the factorisation never hits a non-positive
	// pivot.
	for i := 0; i < calibN; i++ {
		for j := 0; j < calibN; j++ {
			v := 1 / (1 + math.Abs(float64(i-j)))
			if i == j {
				v += calibN
			}
			c.a[i*calibN+j] = v
		}
	}
	return c
}

// once runs the kernel a single time and returns its duration in ms.
func (c *calibrator) once() float64 {
	start := time.Now()
	n := calibN
	a, l := c.a, c.l
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a[i*n+j]
			li, lj := l[i*n:i*n+j], l[j*n:j*n+j]
			for k := range li {
				s -= li[k] * lj[k]
			}
			if i == j {
				l[i*n+j] = math.Sqrt(s)
			} else {
				l[i*n+j] = s / l[j*n+j]
			}
		}
	}
	c.sink += l[n*n-1]
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// sample records the mean of calibRuns kernel executions and returns the
// sample's index.
func (c *calibrator) sample() int {
	var total float64
	for i := 0; i < calibRuns; i++ {
		total += c.once()
	}
	c.samples = append(c.samples, total/calibRuns)
	return len(c.samples) - 1
}

// factor converts a raw duration measured between samples before and after
// into reference-box time, using the samples within calibWindow of the two.
func (c *calibrator) factor(before, after int) float64 {
	lo, hi := max(before-calibWindow+1, 0), min(after+calibWindow, len(c.samples))
	return normFactor(median(c.samples[lo:hi]))
}

// normFactor is the arithmetic of normalisation: a machine that runs the
// kernel in twice the reference time is half as fast, so raw times halve.
func normFactor(kernelMS float64) float64 { return calibRefMS / kernelMS }

// spread summarises the calibration samples of a run: their median, and the
// ratio p90÷p10 the driver uses as its noise guard.
func (c *calibrator) spread() (p50, ratio float64) {
	if len(c.samples) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), c.samples...)
	sort.Float64s(s)
	return quantileSorted(s, 50), quantileSorted(s, 90) / quantileSorted(s, 10)
}
