package main

import (
	"bytes"
	"strings"
	"testing"

	"wayfinder/perfbench/stat"
)

func TestVerdict(t *testing.T) {
	tput := metricDef{Name: "obs_per_s", Better: "higher", Bound: 0.1, e2e: true}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{70, 130, 100, 80, 120, 90, 110, 75, 125, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	cases := []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"identical", steady, steady, "same"},
		{"20% slower", steady, shift(steady, 0.8), "REGRESSION"},
		{"5% slower stays within the bound", steady, shift(steady, 0.95), "same"},
		{"10% faster in every pair", steady, shift(steady, 1.1), "gain"},
		{"noisy parent", noisy, shift(noisy, 0.85), "unresolved"},
		{"noisy parent, head beats every run", noisy, shift(steady, 2), "gain"},
	}
	for _, c := range cases {
		won, lost, n := stat.Wins(c.base, c.head, true)
		if got := verdict(tput, c.base, c.head, won, lost, n); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	layer := metricDef{Name: "core.snapshot.ms", Better: "lower"}
	won, lost, n := stat.Wins(steady, shift(steady, 1.5), false)
	if got := verdict(layer, steady, shift(steady, 1.5), won, lost, n); got != "worse" {
		t.Errorf("per-layer slowdown: verdict %q, want worse", got)
	}
}

func TestCompareOneRunNamesMovedMost(t *testing.T) {
	defs := []metricDef{
		{Name: "core.snapshot.ms", Unit: "ms", Better: "lower"},
		{Name: "wfd.report_fetch.us", Unit: "us", Better: "lower"},
		{Name: "wfd.quanta", Unit: "count", Better: "lower"},
	}
	one := func(snap, fetch, quanta float64) set {
		return set{"serve": {"seed-1.json": run{Correct: true, Metrics: map[string]reading{
			"core.snapshot.ms": {snap}, "wfd.report_fetch.us": {fetch}, "wfd.quanta": {quanta},
		}}}}
	}
	var out bytes.Buffer
	if bad := compare(&out, defs, one(100, 10, 50), one(110, 15, 100)); bad {
		t.Fatalf("compare reported a failure:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "one run") {
		t.Errorf("no single-run rows:\n%s", out.String())
	}
	// The count moved most but is not a time; of the times, the fetch did.
	if !strings.Contains(out.String(), "moved most: wfd.report_fetch.us (50.0%") {
		t.Errorf("wrong metric named as moved most:\n%s", out.String())
	}
}
