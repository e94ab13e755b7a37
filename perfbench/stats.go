package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted (ascending) by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// summary is a sample set reduced to its median and quartiles; the raw
// samples are kept so every result records what it was computed from.
type summary struct {
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		Median:  quantile(s, 0.5),
		Q1:      quantile(s, 0.25),
		Q3:      quantile(s, 0.75),
		N:       len(s),
		Samples: xs,
	}
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return summarize(xs).Median }

// lostUs stands for the latency of a frame that never arrived: it
// exceeds every limit and, unlike +Inf, survives JSON.
const lostUs = 1e12

// rankUs returns the q-quantile, in microseconds, of ns latencies where
// `missing` further samples are treated as infinitely late (lost or
// refused frames miss every latency limit). sorted must be ascending;
// an empty sample gives -1.
func rankUs(sorted []uint32, missing int, q float64) float64 {
	total := len(sorted) + missing
	if total == 0 {
		return -1
	}
	r := int(math.Ceil(q*float64(total))) - 1
	if r < 0 {
		r = 0
	}
	if r >= len(sorted) {
		return lostUs
	}
	return float64(sorted[r]) / 1e3
}

func sortU32(xs []uint32) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}
