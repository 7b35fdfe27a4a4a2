package main

import (
	"bytes"
	"testing"

	wayfinder "wayfinder"
	"wayfinder/internal/wfd"
)

// runSession runs one short tune session, optionally through the timing
// wrapper, and returns its canonical report and snapshot.
func runSession(t *testing.T, kind string, obs int, wrap bool) (rep, snap []byte, w *timedSearcher) {
	t.Helper()
	ts := newTuneSession(kind, 11)
	if wrap {
		var step int
		w = &timedSearcher{inner: ts.searcher, tr: newTracer(), parent: &step, trace: "t",
			propose: &opStats{}, observe: &opStats{}}
		ts.searcher = w
	}
	sess, err := ts.open(obs, 11)
	if err != nil {
		t.Fatal(err)
	}
	for !sess.Done() {
		sess.Step(1)
	}
	rep, err = wfd.CanonicalReportJSON(sess.Report())
	if err != nil {
		t.Fatal(err)
	}
	if snap, err = sess.Snapshot(); err != nil {
		t.Fatal(err)
	}
	return rep, snap, w
}

func TestTimedSearcherTransparent(t *testing.T) {
	for _, c := range []struct {
		kind string
		obs  int
	}{{"random", 40}, {"bayesian", 30}, {"deeptune", 12}} {
		t.Run(c.kind, func(t *testing.T) {
			plain, _, _ := runSession(t, c.kind, c.obs, false)
			wrapped, snap, w := runSession(t, c.kind, c.obs, true)
			if foldDigests([]string{string(plain)}) != foldDigests([]string{string(wrapped)}) {
				t.Fatal("the wrapper changed the session's report")
			}
			if len(w.propose.lat) == 0 || len(w.observe.lat) != c.obs {
				t.Errorf("wrapper saw %d proposals and %d observations, want some and %d",
					len(w.propose.lat), len(w.observe.lat), c.obs)
			}
			// The wrapper forwards checkpoints: its snapshot resumes into a
			// plain searcher with the same report.
			fresh := newTuneSession(c.kind, 11)
			resumed, err := wayfinder.Resume(fresh.model, fresh.app, snap, wayfinder.WithSearcher(fresh.searcher))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := wfd.CanonicalReportJSON(resumed.Report())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rep, plain) {
				t.Error("a snapshot taken through the wrapper resumed to a different report")
			}
		})
	}
}
