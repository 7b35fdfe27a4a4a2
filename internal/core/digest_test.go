package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wayfinder/internal/apps"
	"wayfinder/internal/simos"
	"wayfinder/internal/vm"
)

// updateDigests rewrites testdata/scheduler_digests.json from the current
// engine instead of checking against it.
var updateDigests = flag.Bool("update-scheduler-digests", false,
	"rewrite testdata/scheduler_digests.json from the current engine")

const digestTablePath = "testdata/scheduler_digests.json"

// digestRow is one pinned session: its canonical report hash and the hash
// of its event-type sequence.
type digestRow struct {
	Name   string `json:"name"`
	Report string `json:"report"`
	Events string `json:"events"`
}

// digestTopologies are the scheduler shapes the table covers: one worker,
// a round barrier on one host (with Async at staleness 0, too) and on four
// (locality dispatch), bounded asynchrony on two hosts, and unbounded
// asynchrony behind a straggler.
// A whole-fleet outage needs two hosts (the schedule rejects downing the
// only one), so single-host shapes run no outage cell.
var digestTopologies = []struct {
	name string
	opts Options
}{
	{"w1", Options{}},
	{"round-w3-h1", Options{Workers: 3}},
	{"async-w3-h1-s0", Options{Workers: 3, Async: true}},
	{"round-w8-h4-locality", Options{Workers: 8, Hosts: 4, Dispatch: DispatchLocality}},
	{"async-w8-h2-s2", Options{Workers: 8, Hosts: 2, Async: true, Staleness: 2}},
	{"async-w4-h2-s-1-straggler", Options{Workers: 4, Hosts: 2, Async: true, Staleness: -1,
		WorkerSpeedFactors: StragglerFleet(4, 4)}},
}

// digestFaults returns the schedule for one fault setting on a topology:
// "churn" takes one host down and back (on a one-host fleet, a preemption
// stands in) and injects a build and a boot failure; "outage" takes every
// host down at once, after an earlier preemption, and brings them back
// one after the other. It returns nil for a cell the topology cannot run.
func digestFaults(t *testing.T, kind string, opts Options) *Options {
	w, h := opts.effWorkers(), opts.effHosts()
	var src string
	switch kind {
	case "none":
		return &opts
	case "churn":
		if h > 1 {
			src = "down:1@150,up:1@500,preempt:0@200,"
		} else {
			src = fmt.Sprintf("preempt:0@100,preempt:%d@420,", w-1)
		}
		src += "buildfail:3#1,bootfail:6#1,retry:3/15/2"
	case "outage":
		if h < 2 {
			return nil
		}
		for i := 0; i < h; i++ {
			src += fmt.Sprintf("down:%d@100,up:%d@%d,", i, i, 400+50*i)
		}
		src += fmt.Sprintf("preempt:%d@50,retry:4/30/2", w-1)
	}
	opts.Faults = mustSchedule(t, src)
	return &opts
}

// digestSession runs one table cell and returns its row and report. Every
// cell, whatever its faults, must record its whole budget and lose nothing.
func digestSession(t *testing.T, name, kind string, opts Options) (digestRow, *Report) {
	m := simos.NewLinux(simos.LinuxOptions{FillerRuntime: 40, FillerBoot: 5, FillerCompile: 10, Seed: 1})
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, kind, 5), &vm.Clock{}, 5)
	sess, err := eng.NewSession(opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	events := sha256.New()
	sess.AddObserver(func(ev Event) { fmt.Fprintf(events, "%T\n", ev) })
	rep, err := sess.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rep.History) != opts.Iterations || rep.LostObservations != 0 {
		t.Errorf("%s: %d of %d observations recorded, %d lost", name,
			len(rep.History), opts.Iterations, rep.LostObservations)
	}
	return digestRow{
		Name:   name,
		Report: reportHash(t, rep),
		Events: hex.EncodeToString(events.Sum(nil)),
	}, rep
}

// digestRows runs every cell of the table: five searchers × the
// topologies × three fault settings.
func digestRows(t *testing.T) []digestRow {
	var rows []digestRow
	for _, kind := range []string{"random", "grid", "bayesian", "unicorn", "deeptune"} {
		iters := 24
		if kind == "deeptune" {
			iters = 16
		}
		for _, topo := range digestTopologies {
			for _, fk := range []string{"none", "churn", "outage"} {
				opts := digestFaults(t, fk, topo.opts)
				if opts == nil {
					continue
				}
				opts.Iterations, opts.Seed = iters, 5
				row, _ := digestSession(t, kind+"/"+topo.name+"/"+fk, kind, *opts)
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// TestSchedulerDigestTable pins every scheduler shape, under every fault
// setting and searcher, to the report and event-type digests of the three
// scheduler loops the event-driven one replaced (one worker, round
// barrier, async). The two equivalences the single loop must keep —
// one worker ≡ the sequential loop, staleness 0 ≡ the round barrier —
// are rows of this table (the async-w3-h1-s0 rows carry the round-w3-h1
// digests); pinnedRow lets the tests of those equivalences check other
// spellings of the same options against it. Async outage rows hold values recorded after
// the fix to the idle-session revival jump (before it, the grid and
// deeptune ones recorded nothing).
func TestSchedulerDigestTable(t *testing.T) {
	got := digestRows(t)
	path := filepath.FromSlash(digestTablePath)
	if *updateDigests {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []digestRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells, table has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: got %+v, want %+v", want[i].Name, got[i], want[i])
		}
	}
}

// pinnedRow returns the row of the committed table with the given name.
func pinnedRow(t *testing.T, name string) digestRow {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(digestTablePath))
	if err != nil {
		t.Fatal(err)
	}
	var rows []digestRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no row %q in %s", name, digestTablePath)
	return digestRow{}
}

// checkPinned runs a session with opts plus the table's budget and seed
// and compares it with the committed row pinned, whose options may be
// spelled differently. It returns the report.
func checkPinned(t *testing.T, pinned, kind, fault string, opts Options) *Report {
	t.Helper()
	iters := 24
	if kind == "deeptune" {
		iters = 16
	}
	o := digestFaults(t, fault, opts)
	o.Iterations, o.Seed = iters, 5
	want := pinnedRow(t, pinned)
	got, rep := digestSession(t, want.Name, kind, *o)
	if got != want {
		t.Errorf("%+v: got %+v, want the pinned %+v", opts, got, want)
	}
	return rep
}
