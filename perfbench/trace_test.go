package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// round [0,100) holds two overlapping jobs [10,50) and [30,70) and a
	// disjoint shutdown [80,90); job 1 holds a submit [10,15) and a child
	// reaching past its end [45,60), which counts only up to 50.
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "job", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "job", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "shutdown", Start: 80, End: 90},
		{ID: 5, Parent: 2, Name: "submit", Start: 10, End: 15},
		{ID: 6, Parent: 2, Name: "wait", Start: 45, End: 60},
		{ID: 7, Parent: 1, Name: "open", Start: 95, End: -1}, // never closed
	}
	got := map[string]layerTime{}
	for _, l := range selfTimes(spans) {
		got[l.Name] = l
	}
	want := map[string]struct {
		count       int
		total, self time.Duration
	}{
		"round":    {1, 100, 100 - 60 - 10}, // union of jobs is [10,70)
		"job":      {2, 80, (40 - 5 - 5) + 40},
		"shutdown": {1, 10, 10},
		"submit":   {1, 5, 5},
		"wait":     {1, 15, 15},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.count || g.Total != w.total || g.Self != w.self {
			t.Errorf("%s: count=%d total=%v self=%v, want %d %v %v", name, g.Count, g.Total, g.Self, w.count, w.total, w.self)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span was aggregated")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, "")
	tr.end(id)
	if id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}
