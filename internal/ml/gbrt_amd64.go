package ml

import "locat/internal/mat"

func init() {
	if mat.HasAVX2FMA() {
		screen = screenLanes
	}
}

// screenLanes is written, and documented, in gbrt_amd64.s.
//
//go:noescape
func screenLanes(ls []float64, w []uint64, il, ir []float64, sum, lim float64) int
