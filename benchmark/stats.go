package main

import (
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
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

// timed runs fn and returns its wall duration.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// repeat times fn at least minReps times and until minDur has passed, and
// returns the median seconds per call.
func repeat(minReps int, minDur time.Duration, fn func()) float64 {
	var secs []float64
	start := time.Now()
	for len(secs) < minReps || time.Since(start) < minDur {
		secs = append(secs, timed(fn).Seconds())
	}
	return median(secs)
}
