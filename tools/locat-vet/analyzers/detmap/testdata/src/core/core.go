// Package core exercises //locat:allow suppression for detmap findings, and
// carries the float-accumulator violation core itself once had.
package core

// Float addition rounds: the sum's last bits follow the iteration order.
func keptSec(qs map[string]float64, keep map[string]bool) float64 {
	var sec float64
	for n, q := range qs {
		if keep[n] {
			sec += q // want `floating-point \+= on sec inside range over map`
		}
	}
	return sec
}

// Counting is exact in any order.
func keptCount(qs map[string]float64, keep map[string]bool) int {
	var n int
	for name := range qs {
		if keep[name] {
			n += 1
		}
	}
	return n
}

func debugDump(m map[string]int) []string {
	var lines []string
	for k := range m {
		lines = append(lines, k) //locat:allow detmap debug output, ordering is cosmetic only
	}
	return lines
}
