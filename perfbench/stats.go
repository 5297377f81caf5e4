package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// blockSamples is the block size of blockQuantile.
const blockSamples = 100

// blockQuantile is the latency percentile the benchmark reports: the
// samples, in the order they were taken, are cut into consecutive blocks of
// blockSamples (one block when there are fewer), and the median of the
// blocks' q-quantiles is returned. A stall that hits a few blocks (a GC
// cycle, a noisy neighbour) moves those blocks, not the result. For q=0.99 a
// block's quantile lies between its two highest samples.
func blockQuantile(xs []float64, q float64) float64 {
	blocks := max(1, len(xs)/blockSamples)
	qs := make([]float64, blocks)
	for b := range qs {
		qs[b] = quantile(append([]float64(nil), xs[b*len(xs)/blocks:(b+1)*len(xs)/blocks]...), q)
	}
	return median(qs)
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
