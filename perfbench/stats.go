package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1): the
// value at sorted index ceil(p·n)-1. It does not modify xs. An empty
// sample gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the nearest-rank index ceil(p·n)-1, clamped to [0, n-1].
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// tailLadder is the percentiles a tail is reported at, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// supportedTail returns the highest percentile in tailLadder that has at
// least minBeyond samples above its nearest-rank position in a sample of
// n, or 0 when even the median is not supported (n < 2·minBeyond).
func supportedTail(n int) float64 {
	for _, p := range tailLadder {
		if n-1-rankIndex(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// median is the conventional median (the mean of the two middle values
// of an even-sized sample); NaN for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; NaN for an empty sample.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// meanOfMedians is the mean of a sample split into classes, with each
// class's values replaced by its median: the sum over classes of
// n_c·median_c, over the total n. The serve-mixed traffic is half cache
// hits and half misses spread over five templates, so a single median of
// all latencies falls in the sparse gap between the fast hits and the
// slow misses, where a few samples move it far. Each class median sits
// inside its own cluster; weighting by count keeps every class's share.
// NaN for an empty sample.
func meanOfMedians(classes map[string][]float64) float64 {
	var sum float64
	var n int
	for _, xs := range classes {
		sum += float64(len(xs)) * median(xs)
		n += len(xs)
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// sortedKeys returns the keys of m in increasing order.
func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is a closed time span [start, end] in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap (parallel work), so the covered part is the length
// of their union clipped to the parent, never the sum of their lengths.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// speedup is the serial time over the parallel time; 0 when either is
// not positive.
func speedup(serial, parallel float64) float64 {
	if serial <= 0 || parallel <= 0 {
		return 0
	}
	return serial / parallel
}

// rate is work units per second over a time in milliseconds; 0 for a
// non-positive time.
func rate(units, msec float64) float64 {
	if msec <= 0 {
		return 0
	}
	return units / (msec / 1e3)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mib converts a byte count to MiB.
func mib(b uint64) float64 { return float64(b) / (1 << 20) }
