package mat

func init() {
	if HasAVX2FMA() {
		factor, solveLower4 = factorLanes, solveLower4Lanes
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

// factorRowLanes, solveLower4Lanes and HasAVX2FMA are written, and
// documented, in chol_amd64.s.
func factorRowLanes(u []float64, st, j, n int) bool

func solveLower4Lanes(u []float64, st, n int, b []float64)

// HasAVX2FMA reports whether the processor has AVX2 and FMA and the
// operating system saves the YMM registers: the gate of this package's lane
// kernel and of gp's kernel rows.
func HasAVX2FMA() bool
