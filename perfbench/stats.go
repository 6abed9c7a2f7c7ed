package main

import (
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile. A
// percentile with fewer samples past it describes a handful of calls, not
// a tail, and moves from run to run with whichever calls happened to be
// slow.
const minTail = 10

// median returns the nearest-rank median of a small set of per-run figures
// (set-ups, microbenchmark repetitions). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[(len(xs)+1)/2-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio divides, reading 0 when nothing was counted below the line (a
// per-layer figure for a mechanism the workload never exercised).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

const mib = 1 << 20
