package gp

import (
	"math"

	"locat/internal/mat"
)

// useVecKernel is decided once, at start-up, as "Kernel rows" in the package
// doc says; only tests change it.
var useVecKernel = mat.HasAVX2FMA() && probeMatchesExp()

// kernelProbe holds distances whose exponentials come out differently under
// math.Exp's FMA and SSE sequences (TestVecKernelGate asserts it).
var kernelProbe = [...]float64{0.2, 0.4, 1.6, 2.4, 5.2, 7.3, 7.9, 8.6}

func probeMatchesExp() bool {
	var got [len(kernelProbe)]float64
	ok := kernelRow4(got[:], kernelProbe[:], 1, 1) == len(got)
	for j, v := range kernelProbe {
		ok = ok && math.Float64bits(got[j]) == math.Float64bits(math.Exp(-v))
	}
	return ok
}

func init() {
	if mat.HasAVX2FMA() {
		distances = distancesLanes
	}
}

// kernelRow4 and distancesLanes are written, and documented, in
// kernel_amd64.s.
//
//go:noescape
func kernelRow4(dst, d2 []float64, s2, tl2 float64) int

//go:noescape
func distancesLanes(t, x, d2 []float64)
