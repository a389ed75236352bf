package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// Quantile summary of a set of timings, with the sample counts the
// choosing-metrics rule asks for: the median and the highest percentile
// that still has at least tailBeyond samples above it.
type latencySummary struct {
	N        int     // samples
	P50      float64 // median, in the samples' unit
	Tail     float64 // value at TailPct
	TailPct  float64 // percentile of Tail (nearest rank, 0..100)
	TailRank int     // 1-based rank of Tail in the sorted samples
}

// tailBeyond is the number of samples the tail percentile must leave above
// it for the figure to rest on more than one or two outliers.
const tailBeyond = 10

// summarize returns the median and the tail of xs.  The tail is the sample
// of nearest rank N-tailBeyond, so exactly tailBeyond samples lie above it.
// With tailBeyond or fewer samples no percentile qualifies, and the tail is
// the maximum (TailPct 100).
func summarize(xs []float64) (latencySummary, error) {
	n := len(xs)
	if n == 0 {
		return latencySummary{}, fmt.Errorf("no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := n
	if n > tailBeyond {
		rank = n - tailBeyond
	}
	return latencySummary{
		N:        n,
		P50:      median(s),
		Tail:     s[rank-1],
		TailPct:  100 * float64(rank) / float64(n),
		TailRank: rank,
	}, nil
}

// median of xs (the mean of the middle pair for an even count); xs need
// not be sorted.  An empty slice has median 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean of strictly positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0 (a ratio with an empty base).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether a metric name and unit fit the result
// format: a name of at most 64 letters, digits, '_', '.' and '-' that
// starts with a letter or digit, and a unit of at most 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func validMetric(name, unit string) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	if !metricUnitRE.MatchString(unit) {
		return fmt.Errorf("metric %s: invalid unit %q", name, unit)
	}
	return nil
}
