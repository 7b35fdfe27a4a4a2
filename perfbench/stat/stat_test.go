package stat

import (
	"math"
	"testing"
)

func TestTailRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{200, 0.95, true},  // exactly ten beyond p95
		{199, 0.95, false}, // nine
		{100, 0.90, true},  // exactly ten beyond p90
		{99, 0.90, false},
		{108, 0.90, true},
		{1000, 0.99, true},
		{999, 0.99, false},
	}
	for _, c := range cases {
		if got := TailOK(c.n, c.p); got != c.want {
			t.Errorf("TailOK(%d, %.2f) = %v (beyond=%d), want %v", c.n, c.p, got, Beyond(c.n, c.p), c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // reversed: Percentile must sort a copy
	}
	if got := Percentile(xs, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := Percentile(xs, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if xs[0] != 200 {
		t.Error("Percentile modified its input")
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) || !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("an empty sample has a median")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	}
	for _, c := range cases {
		q1, q2, q3, err := Quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := Quartiles([]float64{1}); err == nil {
		t.Error("Quartiles of one sample succeeded")
	}
	s, err := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("Spread = %v, %v; want 1", s, err)
	}
}

func TestWinsPairRule(t *testing.T) {
	base := []float64{10, 10, 10, 10, 10}
	head := []float64{9, 11, 10, 8, 7, 1} // the sixth has no partner
	won, lost, n := Wins(base, head, false)
	if won != 3 || lost != 1 || n != 5 {
		t.Errorf("lower-better: won=%d lost=%d n=%d, want 3 1 5 (tie counts for neither)", won, lost, n)
	}
	won, lost, _ = Wins(base, head, true)
	if won != 1 || lost != 3 {
		t.Errorf("higher-better: won=%d lost=%d, want 1 3", won, lost)
	}
}

func TestRatioCarriesBase(t *testing.T) {
	if v, err := (Ratio{0, 108}).Value(); err != nil || v != 0 {
		t.Errorf("0 of 108 = %v, %v", v, err)
	}
	if v, err := (Ratio{3, 12}).Value(); err != nil || v != 0.25 {
		t.Errorf("3 of 12 = %v, %v", v, err)
	}
	if _, err := (Ratio{0, 0}).Value(); err == nil {
		t.Error("a ratio without a base has a value")
	}
	if _, err := (Ratio{5, 4}).Value(); err == nil {
		t.Error("a count above its base has a value")
	}
	if got := (Ratio{1, 4}).String(); got != "0.2500 (1 of 4)" {
		t.Errorf("String = %q", got)
	}
}
