package main

import (
	"math"
	"math/bits"
)

// subBits sets the histogram's resolution: each power of two is split into
// 1<<subBits buckets, so a bucket spans under 0.8 % of its values.
const subBits = 7

// hist is a log-linear histogram of non-negative integers (nanoseconds, or
// rates in thousandths per second). Recording allocates nothing and its
// size is fixed, so a run's own bookkeeping neither grows the heap it
// measures nor adds allocations to the calls it counts.
type hist struct {
	counts [64 << subBits]uint32
	n      uint64
}

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketRange returns the smallest value in bucket i and the bucket's width.
func bucketRange(i int) (lo, width uint64) {
	if i < 1<<subBits {
		return uint64(i), 1
	}
	e := i>>subBits - 1
	return uint64(i&(1<<subBits-1)+1<<subBits) << e, 1 << e
}

func (h *hist) add(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the p-quantile (0 < p < 1) by the nearest-rank method,
// placed within its bucket by the rank's position among the bucket's
// samples, and whether at least minTail samples lie beyond that rank.
func (h *hist) quantile(p float64) (float64, bool) {
	if h.n == 0 {
		return 0, false
	}
	// The epsilon keeps p*n from rounding up past an exact rank.
	rank := uint64(math.Ceil(p*float64(h.n)-1e-9)) - 1
	var cum uint64
	for i, c := range h.counts {
		if cum+uint64(c) > rank {
			lo, width := bucketRange(i)
			// The bucket holds the integers lo..lo+width-1.
			frac := (float64(rank-cum) + 0.5) / float64(c)
			return float64(lo) + frac*float64(width-1), h.n-1-rank >= minTail
		}
		cum += uint64(c)
	}
	panic("hist: counts do not add up to n")
}

func (h *hist) median() float64 {
	v, _ := h.quantile(0.5)
	return v
}
