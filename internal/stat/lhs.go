package stat

import "math/rand"

// LatinHypercube draws n samples in the d-dimensional unit cube using Latin
// Hypercube Sampling: each dimension's [0,1) range is cut into n equal strata
// and every stratum is hit exactly once, with strata assignments permuted
// independently per dimension. LOCAT seeds its Bayesian optimization with
// three LHS points (paper Section 3.4, "Start points").
func LatinHypercube(n, d int, rng *rand.Rand) [][]float64 {
	if n <= 0 || d <= 0 {
		panic("stat: LatinHypercube requires n > 0 and d > 0")
	}
	flat := make([]float64, n*d)
	out := make([][]float64, n)
	for i := range out {
		out[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	LatinHypercubeInto(out, d, make([]int, n), rng)
	return out
}

// LatinHypercubeInto is LatinHypercube drawn into storage the caller owns:
// the first d columns of every row of out receive the len(out) samples (rows
// may be longer; the rest is left alone) and perm, of length len(out), is
// scratch. The draws and their order are LatinHypercube's: rng.Shuffle's and
// rng.Float64's steps over rng.Int63, written out so that no swap closure is
// built and no method call is made per draw beyond Int63 (len(out) < 2³¹).
func LatinHypercubeInto(out [][]float64, d int, perm []int, rng *rand.Rand) {
	n, strata := len(out), float64(len(out))
	for j := 0; j < d; j++ {
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- { // Shuffle: int31n(i+1) over Uint32 draws
			m := uint32(i + 1)
			prod := uint64(rng.Int63()>>31) * uint64(m)
			if low := uint32(prod); low < m {
				for thresh := -m % m; low < thresh; low = uint32(prod) {
					prod = uint64(rng.Int63()>>31) * uint64(m)
				}
			}
			k := int(prod >> 32)
			perm[i], perm[k] = perm[k], perm[i]
		}
		for i := 0; i < n; i++ {
			f := float64(rng.Int63()) / (1 << 63) // Float64, which redraws a 1
			for f == 1 {
				f = float64(rng.Int63()) / (1 << 63)
			}
			// Jittered position inside stratum perm[i].
			out[i][j] = (float64(perm[i]) + f) / strata
		}
	}
}
