//go:build !amd64

package gp

// The vector kernel is amd64 only; kernelRow runs its scalar loop.
var useVecKernel = false

func kernelRow4(dst, d2 []float64, s2, tl2 float64) int { return 0 }
