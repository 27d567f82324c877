package mat

func init() {
	if HasAVX2FMA() {
		factor, solveLower, logSum = factorLanes, solveLowerLanes, logSumLanes
	}
}

// factorLanes is factorGo on the lane kernel, a row at a time.
func factorLanes(u []float64, st, n int) int {
	for j := 0; j < n; j++ {
		if !factorRowLanes(u, st, j, n) {
			return j
		}
	}
	return -1
}

// factorRowLanes, solveLowerLanes, logSumLanes and HasAVX2FMA are written,
// and documented, in chol_amd64.s.
//
//go:noescape
func factorRowLanes(u []float64, st, j, n int) bool

//go:noescape
func solveLowerLanes(u []float64, st, n int, b []float64)

//go:noescape
func logSumLanes(u []float64, step, n int) (s float64, ok bool)

// HasAVX2FMA reports whether the processor has AVX2 and FMA and the
// operating system saves the YMM registers: the gate of this package's lane
// kernels and of gp's.
//
//go:noescape
func HasAVX2FMA() bool
