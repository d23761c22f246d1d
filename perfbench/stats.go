package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is the number of samples a reported percentile must have
// strictly beyond it; a higher percentile over fewer samples is one
// or two outliers, not a tail.
const minTail = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the mean of xs, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentile returns the nearest-rank p-quantile of xs (0 < p < 1)
// and refuses one with fewer than minTail samples beyond it.
func tailPercentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	// The epsilon keeps 0.95*200 = 190.00000000000003 at rank 190.
	k := int(math.Ceil(p*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if n-k < minTail {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, need %d", 100*p, n, max(n-k, 0), minTail)
	}
	return sorted(xs)[k-1], nil
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so the steadiness report matches the spread
// a Python reader of the same values would compute.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", ld)
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetric validates a metric's name and unit against the charset
// the benchmark's result format allows, and its value against JSON.
func checkMetric(name string, m metric) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("metric name %q: want 1-64 of [A-Za-z0-9_.-], starting with a letter or digit", name)
	}
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %s: unit %q: want 1-16 of [A-Za-z0-9_/%%.-]", name, m.Unit)
	}
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return fmt.Errorf("metric %s: value %v is not a number", name, m.Value)
	}
	return nil
}
