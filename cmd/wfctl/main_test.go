package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"wayfinder/internal/configspace"
	"wayfinder/internal/wfd"
)

// TestCheckStartFlags pins the flag-layer validation: the combinations
// only the CLI can see (explicit zero workers, -staleness without -async,
// strategy-bound surrogate flags) plus the fault-injection flags, whose
// deeper constraints (fleet ranges, locality vs cache) are deferred to the
// shared Options.Validate.
func TestCheckStartFlags(t *testing.T) {
	ok := startFlags{Workers: 1, Hosts: 1, Staleness: -1, Strategy: "deeptune"}
	cases := []struct {
		name    string
		mutate  func(*startFlags)
		wantErr string
	}{
		{"defaults", func(f *startFlags) {}, ""},
		{"workers zero", func(f *startFlags) { f.Workers = 0 }, "-workers"},
		{"hosts zero", func(f *startFlags) { f.Hosts = 0 }, "-hosts"},
		{"staleness without async", func(f *startFlags) { f.Staleness = 2 }, "-staleness"},
		{"staleness with async", func(f *startFlags) { f.Async = true; f.Staleness = 2; f.Workers = 4 }, ""},
		{"gp-refit off-strategy", func(f *startFlags) { f.GPRefit = true }, "-gp-refit"},
		{"gp-refit bayesian", func(f *startFlags) { f.GPRefit = true; f.Strategy = "bayesian" }, ""},
		{"gp-window off-strategy", func(f *startFlags) { f.GPWindow = 64; f.Strategy = "random" }, "-gp-window"},
		{"gp-window deeptune", func(f *startFlags) { f.GPWindow = 64 }, ""},
		{"faults valid", func(f *startFlags) { f.Faults = "down:1@300,up:1@900,retry:3/20/2" }, ""},
		{"faults injections only", func(f *startFlags) { f.Faults = "buildfail:7#1,bootfail:9" }, ""},
		{"faults malformed", func(f *startFlags) { f.Faults = "meteor:1@2" }, "-faults"},
		{"faults truncated", func(f *startFlags) { f.Faults = "down:1" }, "-faults"},
		{"dispatch static", func(f *startFlags) { f.Dispatch = "static" }, ""},
		{"dispatch locality", func(f *startFlags) { f.Dispatch = "locality" }, ""},
		{"dispatch unknown", func(f *startFlags) { f.Dispatch = "gravity" }, "-dispatch"},
	}
	for _, tc := range cases {
		f := ok
		tc.mutate(&f)
		err := checkStartFlags(nil, f)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestStartMatchesDaemon: `wfctl start` builds its session from the same
// job spec and assembly the daemon uses, so one spec gives byte-identical
// canonical reports whether it runs locally or as a daemon job.
func TestStartMatchesDaemon(t *testing.T) {
	job, err := configspace.ParseJobYAML(`name: nginx-linux
os: linux
app: nginx
metric: throughput
maximize: true
iterations: 16
favor:
  compile: 0
`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []startFlags{
		{Strategy: "random", Seed: 3, Workers: 1, Hosts: 1},
		{Strategy: "grid", Seed: 3, Workers: 4, Hosts: 2, Dispatch: "locality", Iterations: 12},
		{Strategy: "bayesian", Seed: 5, Workers: 4, Hosts: 2, Async: true, Staleness: 1,
			Faults: "down:1@150,up:1@500,buildfail:3#1,retry:3/15/2"},
		{Strategy: "random", Seed: 7, Workers: 3, Hosts: 1, Async: true, Staleness: -1, NoCache: true},
	}
	d, err := wfd.New(wfd.Config{Steppers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	for _, f := range cases {
		spec := startSpec(job, f)
		sess, err := newStartSession(spec, 1, false, nil)
		if err != nil {
			t.Fatalf("%+v: %v", f, err)
		}
		rep, err := sess.Run(context.Background())
		if err != nil {
			t.Fatalf("%+v: %v", f, err)
		}
		local, err := wfd.CanonicalReportJSON(rep)
		if err != nil {
			t.Fatal(err)
		}
		id, err := d.Submit(spec)
		if err != nil {
			t.Fatalf("%+v: submit: %v", f, err)
		}
		if err := d.WaitJob(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		served, err := d.ReportJSON(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(local, served) {
			t.Errorf("%+v: wfctl start and wfd reports differ", f)
		}
	}
}
