// Package stat holds the order statistics the benchmark and benchdiff
// share: nearest-rank percentiles with the tail-sample rule, quartiles in
// the form Python's statistics.quantiles(n=4) gives them, paired win
// counts, and ratios that carry their base.
package stat

import (
	"fmt"
	"math"
	"slices"
)

// MinTail is the number of samples that must lie beyond a reported tail
// percentile: a p95 over fewer than 200 samples rests on fewer than ten
// observations and is not reported.
const MinTail = 10

// Beyond returns how many of n samples lie strictly beyond the
// nearest-rank p-th percentile (0 < p < 1).
func Beyond(n int, p float64) int {
	rank := int(math.Ceil(p * float64(n)))
	return n - rank
}

// TailOK reports whether n samples support a p-th percentile under the
// MinTail rule.
func TailOK(n int, p float64) bool { return Beyond(n, p) >= MinTail }

// Percentile returns the nearest-rank p-th percentile of xs (0 < p <= 1),
// or NaN when xs is empty. xs need not be sorted; it is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// Median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN when xs is empty.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, median and third quartile of xs
// with the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// the form the benchmark's spread rule is stated in. It needs at least two
// samples.
func Quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("stat: quartiles need at least 2 samples, got %d", n)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(i int) float64 {
		// Position i*(n+1)/4 (1-based), clamped and interpolated exactly
		// as CPython's implementation does it.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3), nil
}

// Spread returns the interquartile distance of xs as a share of its
// median: the run-to-run noise a bound has to exceed.
func Spread(xs []float64) (float64, error) {
	q1, q2, q3, err := Quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, fmt.Errorf("stat: spread of a metric whose median is 0")
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// Wins counts the pairs (base[i], head[i]) in which head is better —
// higher when higherBetter, lower otherwise. Ties count for neither side.
// Only the first min(len(base), len(head)) pairs are compared; n is that
// count.
func Wins(base, head []float64, higherBetter bool) (won, lost, n int) {
	n = min(len(base), len(head))
	for i := 0; i < n; i++ {
		switch {
		case head[i] == base[i]:
		case (head[i] > base[i]) == higherBetter:
			won++
		default:
			lost++
		}
	}
	return won, lost, n
}

// Ratio is a count over its base, so a ratio is never reported without
// the number it was taken of.
type Ratio struct {
	Count, Base int
}

// Value returns Count/Base, or an error when there is no base.
func (r Ratio) Value() (float64, error) {
	if r.Base <= 0 {
		return 0, fmt.Errorf("stat: ratio %d/%d has no base", r.Count, r.Base)
	}
	if r.Count < 0 || r.Count > r.Base {
		return 0, fmt.Errorf("stat: ratio %d/%d is outside [0, 1]", r.Count, r.Base)
	}
	return float64(r.Count) / float64(r.Base), nil
}

// String renders the ratio with its base, e.g. "0.0000 (0 of 108)".
func (r Ratio) String() string {
	v, err := r.Value()
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%.4f (%d of %d)", v, r.Count, r.Base)
}
