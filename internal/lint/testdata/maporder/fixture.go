// The maporder fixture: order-sensitive folds over map iteration. The
// analyzer is not package-gated, so the claimed path is arbitrary.
package mapfix

import (
	"fmt"
	"sort"

	"qnp/internal/stats"
)

func sumCompound(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `floating-point accumulation inside a map range`
	}
	return total
}

func sumExplicit(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total = total + v // want `floating-point accumulation inside a map range`
	}
	return total
}

func emit(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want `fmt.Printf inside a map range emits in random map order`
	}
}

func feedStats(m map[string]float64, agg *stats.Agg) {
	for _, v := range m {
		agg.Add(v) // want `feeding stats.Add from inside a map range`
	}
}

func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append inside a map range builds keys in random map order`
	}
	return keys
}

// Collect-then-sort is the sanctioned pattern: the later sort call
// sanctions the append.
func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Integer folds commute exactly; nothing to flag.
func countValues(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// A genuinely order-insensitive fold carries its justification, which
// covers the whole loop body.
func annotatedCount(m map[string]int) int {
	var keys []string
	//qnetlint:sorted only the length of the collected slice is read
	for k := range m {
		keys = append(keys, k)
	}
	return len(keys)
}

// A running maximum is not flagged, so a justification on it suppresses
// nothing and is stale.
func staleAnnotation(m map[string]float64) float64 {
	var max float64
	//qnetlint:sorted taking a running maximum is order-insensitive // want `stale qnetlint directive: no maporder diagnostic`
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}
