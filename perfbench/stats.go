package main

import (
	"math"
	"sort"
)

// median returns the median of xs (the mean of the two middle values for an
// even count); NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	lo, hi := s[n/2-1], s[n/2]
	if math.IsInf(hi, 1) {
		return hi
	}
	return (lo + hi) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is a latency summary at the highest percentile that still has at
// least tailBeyond samples above it.
type tail struct {
	Value      float64 // the sample at that percentile
	Percentile float64 // in percent
	N          int     // samples the percentile was taken over
	// Exact is false when fewer than tailBeyond+1 samples exist: no
	// percentile qualifies and Value is the maximum.
	Exact bool
}

// tailBeyond is how many samples must lie beyond a reported tail percentile.
const tailBeyond = 10

// tailOf applies the tail rule: with n samples sorted ascending, the sample
// at 0-based index n-tailBeyond-1 has exactly tailBeyond samples beyond it,
// and it sits at percentile 100·(n-tailBeyond)/n. Failed operations are
// passed as +Inf, so they sort last and count among the samples beyond (or
// become the tail themselves when there are too many of them).
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return tail{Value: s[n-1], Percentile: 100, N: n}
	}
	return tail{
		Value:      s[n-tailBeyond-1],
		Percentile: 100 * float64(n-tailBeyond) / float64(n),
		N:          n,
		Exact:      true,
	}
}

// capInf replaces +Inf (an operation that never finished) with limit, the
// longest it could have been observed to take, so a summary stays a finite
// JSON number. The run is marked incorrect whenever this matters.
func capInf(v, limit float64) float64 {
	if math.IsInf(v, 1) {
		return limit
	}
	return v
}
