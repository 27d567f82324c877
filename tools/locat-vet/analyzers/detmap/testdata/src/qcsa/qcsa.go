// Package qcsa is a fixture named after a deterministic package: map
// iteration order must never reach an output here.
package qcsa

import "sort"

// Appended result returned without a sort: order escapes.
func keysUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside range over map`
	}
	return keys
}

// Canonical safe pattern: collect then sort before use.
func keysSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Sort through a wrapper type still references the slice: safe.
func keysSortWrapped(m map[string]float64) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Sort(sort.StringSlice(keys))
	return keys
}

// Channel send publishes values in iteration order.
func publish(m map[string]int, out chan<- string) {
	for k := range m {
		out <- k // want `channel send inside range over map`
	}
}

// Returning a loop variable picks a hash-seed-dependent element.
func anyValue(m map[string]int) int {
	for _, v := range m {
		return v // want `return of a loop variable`
	}
	return 0
}

// Integer folds over maps are order-insensitive.
func total(m map[string]int) int {
	var sum int
	for _, v := range m {
		sum += v
	}
	return sum
}

// A float accumulator that lives for one iteration sees a fixed order.
func rowSums(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, row := range m {
		var sum float64
		for _, v := range row {
			sum += v
		}
		out[k] = sum
	}
	return out
}

// Building another map is order-insensitive.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Ranging over a slice is always ordered: appends are fine.
func double(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, 2*x)
	}
	return out
}
