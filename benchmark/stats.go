package main

import (
	"math"
	"sort"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string // printed after the unit on information lines
}

// mix64 is splitmix64's finaliser, the generator behind every input
// this benchmark derives from its seed.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unitFrac maps a hash to [0, 1).
func unitFrac(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile (0 <= q <= 1) of an
// ascending slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// highPercentile returns the highest percentile that still has at least
// ten samples beyond it, with its value. Below 21 samples no percentile
// above the median qualifies, so the median is reported.
func highPercentile(v []float64) (pct, value float64) {
	s := sorted(v)
	idx := len(s) - 11
	if idx < len(s)/2 {
		return 50, quantile(s, 0.5)
	}
	return 100 * float64(idx+1) / float64(len(s)), s[idx]
}

func sortTimes(t []time.Time) {
	sort.Slice(t, func(a, b int) bool { return t[a].Before(t[b]) })
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// medianDuration is median over a set of durations.
func medianDuration(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(median(v))
}
