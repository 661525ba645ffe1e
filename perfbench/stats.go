package main

import (
	"math"
	"sort"
	"time"
)

// minTailSamples is the sample-count rule for a tail percentile: a
// percentile p is reported only when at least ten samples lie beyond it,
// i.e. n*(1-p) >= 10. For p99 that is 1000 samples.
const minTailSamples = 10

// samplesFor returns the fewest samples that satisfy the tail rule for
// percentile p (0 < p < 1).
func samplesFor(p float64) int {
	// The epsilon absorbs float error: 10/(1-0.9) is 100.00000000000001.
	return int(math.Ceil(minTailSamples/(1-p) - 1e-9))
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, which
// it sorts in place. An empty input yields 0.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(p * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// medianFloat returns the median of xs (mean of the middle pair for even
// lengths), leaving xs unsorted. An empty input yields 0.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0: per-page and per-call figures of a
// layer that did no work read as zero instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// selfTime is a layer's exclusive time: its inclusive time minus the part
// spent inside the next layer down. The child's calls nest inside the
// parent's, so a negative difference can only come from clock granularity;
// it is clamped to zero.
func selfTime(inclusive, child time.Duration) time.Duration {
	if child >= inclusive {
		return 0
	}
	return inclusive - child
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
