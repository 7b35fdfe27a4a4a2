package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"wayfinder/internal/apps"
	"wayfinder/internal/fault"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
	"wayfinder/internal/vm"
)

// mustSchedule parses a fault-schedule DSL string or fails the test.
func mustSchedule(t testing.TB, src string) *fault.Schedule {
	t.Helper()
	s, err := fault.Parse(src)
	if err != nil {
		t.Fatalf("parsing schedule %q: %v", src, err)
	}
	return s
}

// reportHash is the canonical report digest the golden pins compare:
// SHA-256 over the DecisionCost-zeroed canonical JSON.
func reportHash(t *testing.T, rep *Report) string {
	t.Helper()
	sum := sha256.Sum256([]byte(canonicalJSON(t, rep)))
	return hex.EncodeToString(sum[:])
}

// TestEmptyScheduleGolden pins the fault-free output of one worker, a
// round barrier and async to digests captured before the fault runtime
// existed (and when each ran its own scheduler loop): the empty schedule
// (and the nil Faults default) must reproduce the pre-fault engine
// byte-for-byte.
func TestEmptyScheduleGolden(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"sequential", Options{Iterations: 40, Seed: 7},
			"15d65fc3a4b2a34440f1b1e4007dbe30f630199a499938420fc04a20d9c7f842"},
		{"round-w8-h4", Options{Iterations: 40, Seed: 7, Workers: 8, Hosts: 4},
			"8b76064dbf82d0d0b411c7c57176f86b962205aa3df27ef41a86077dd0e7a8bb"},
		{"async-w8-h2-s2", Options{Iterations: 40, Seed: 7, Workers: 8, Hosts: 2, Async: true, Staleness: 2},
			"252eec90b306a8f0981f3e0729d589655aae3577908511a60e96af6c6bbdd5a8"},
	}
	for _, tc := range cases {
		for _, withEmpty := range []bool{false, true} {
			opts := tc.opts
			if withEmpty {
				opts.Faults = &fault.Schedule{}
			}
			m := smallLinux(t)
			app := apps.Nginx()
			eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 7), &vm.Clock{}, 7)
			rep, err := eng.Run(opts)
			if err != nil {
				t.Fatalf("%s (empty=%v): %v", tc.name, withEmpty, err)
			}
			if got := reportHash(t, rep); got != tc.want {
				t.Errorf("%s (empty=%v): report hash %s, want %s — the fault-free path drifted",
					tc.name, withEmpty, got, tc.want)
			}
		}
	}
}

// faultOptsMatrix pairs each scheduler with a fault schedule exercising
// its full fault surface (host churn only where hosts permit it).
var faultOptsMatrix = []struct {
	name  string
	opts  Options
	sched string
}{
	{"sequential", Options{Iterations: 24, Seed: 11},
		"preempt:0@100,preempt:0@420,buildfail:3#1,bootfail:6#1,retry:3/15/2"},
	{"round-w8-h4", Options{Iterations: 48, Seed: 11, Workers: 8, Hosts: 4},
		"down:1@150,up:1@500,down:2@600,up:2@900,preempt:3@200,preempt:5@700,buildfail:7#1,bootfail:11#1,retry:3/20/2"},
	{"async-w8-h4-s3", Options{Iterations: 48, Seed: 11, Workers: 8, Hosts: 4, Async: true, Staleness: 3},
		"down:1@150,up:1@500,down:3@400,up:3@800,preempt:2@250,buildfail:5#1,retry:3/20/2"},
}

// TestFaultDeterminism: with a fixed schedule, every scheduler's report is
// byte-identical across runs — faults are part of the pure function, not
// noise.
func TestFaultDeterminism(t *testing.T) {
	for _, tc := range faultOptsMatrix {
		opts := tc.opts
		opts.Faults = mustSchedule(t, tc.sched)
		var hashes [2]string
		var reps [2]*Report
		for i := range hashes {
			m := smallLinux(t)
			app := apps.Nginx()
			eng := NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, "random", 11), &vm.Clock{}, 11)
			rep, err := eng.Run(opts)
			if err != nil {
				t.Fatalf("%s run %d: %v", tc.name, i, err)
			}
			hashes[i] = reportHash(t, rep)
			reps[i] = rep
		}
		if hashes[0] != hashes[1] {
			t.Errorf("%s: same schedule produced diverging reports", tc.name)
		}
		if reps[0].Retries == 0 {
			t.Errorf("%s: schedule injected faults but the report records no retries", tc.name)
		}
		if reps[0].LostObservations != 0 {
			t.Errorf("%s: %d observations lost despite every host reviving", tc.name, reps[0].LostObservations)
		}
	}
}

// TestFaultSnapshotResume: snapshotting mid-fault — retries queued, hosts
// down, the schedule cursor mid-timeline — and resuming must finish
// byte-identically to the uninterrupted faulted run, on every scheduler.
func TestFaultSnapshotResume(t *testing.T) {
	for _, tc := range faultOptsMatrix {
		opts := tc.opts
		opts.Faults = mustSchedule(t, tc.sched)
		newEng := func() *Engine {
			m := smallLinux(t)
			app := apps.Nginx()
			return NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, "random", 11), &vm.Clock{}, 11)
		}
		full, err := newEng().Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, at := range []int{5, 13} {
			sess, err := newEng().NewSession(opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			sess.Step(at)
			snap, err := sess.Snapshot()
			if err != nil {
				t.Fatalf("%s@%d: snapshot: %v", tc.name, at, err)
			}
			resumed, err := newEng().RestoreSession(snap)
			if err != nil {
				t.Fatalf("%s@%d: restore: %v", tc.name, at, err)
			}
			rep, err := resumed.Run(context.Background())
			if err != nil {
				t.Fatalf("%s@%d: resumed run: %v", tc.name, at, err)
			}
			if canonicalJSON(t, full) != canonicalJSON(t, rep) {
				t.Errorf("%s: snapshot-at-%d + resume diverged from the uninterrupted faulted run", tc.name, at)
			}
		}
	}
}

// TestRetryElsewhere: a permanent host outage relocates the killed
// evaluations to the surviving host and the session still completes every
// iteration.
func TestRetryElsewhere(t *testing.T) {
	opts := Options{Iterations: 24, Seed: 9, Workers: 4, Hosts: 2,
		Faults: mustSchedule(t, "down:1@100,up:1@100000")}
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, "random", 9), &vm.Clock{}, 9)
	rep, err := eng.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.History) != 24 {
		t.Fatalf("history has %d of 24 iterations", len(rep.History))
	}
	if rep.Retries == 0 {
		t.Fatal("outage killed no evaluations — schedule did not land")
	}
	if rep.LostObservations != 0 {
		t.Fatalf("%d observations lost; retry-elsewhere should have recovered all", rep.LostObservations)
	}
	for _, h := range rep.History {
		if h.StartSec > 100 && h.Host == 1 {
			t.Fatalf("iteration %d dispatched to host 1 at %.1fs, during its outage", h.Iteration, h.StartSec)
		}
	}
	if rep.HostDowntimeSec <= 0 {
		t.Fatal("report records no host downtime")
	}
}

// TestInjectedFailureRetried: a scheduled transient build failure costs
// one retry and the iteration's kept observation records the attempt.
func TestInjectedFailureRetried(t *testing.T) {
	opts := Options{Iterations: 10, Seed: 1,
		Faults: mustSchedule(t, "buildfail:3#1,retry:3/10/2")}
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 1), &vm.Clock{}, 1)
	rep, err := eng.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries != 1 {
		t.Fatalf("report.Retries = %d, want 1", rep.Retries)
	}
	seen := 0
	for _, h := range rep.History {
		if h.Iteration == 3 {
			seen++
			if h.Retries != 1 {
				t.Fatalf("iteration 3 kept with Retries = %d, want 1", h.Retries)
			}
			if h.Reason == "injected fault" {
				t.Fatal("iteration 3's kept observation is the injected failure, not the retry")
			}
		}
	}
	if seen != 1 {
		t.Fatalf("iteration 3 observed %d times", seen)
	}
}

// TestInjectionExhaustsAttempts: injections on every allowed attempt turn
// the iteration into a recorded crash at the injected stage.
func TestInjectionExhaustsAttempts(t *testing.T) {
	opts := Options{Iterations: 10, Seed: 1,
		Faults: mustSchedule(t, "buildfail:4#1,buildfail:4#2,retry:2/10/2")}
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 1), &vm.Clock{}, 1)
	rep, err := eng.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range rep.History {
		if h.Iteration == 4 {
			found = true
			if !h.Crashed || h.Stage != simos.StageBuild.String() || h.Reason != "injected fault" {
				t.Fatalf("iteration 4 = %+v, want an injected build-stage crash", h)
			}
			if h.Retries != 1 {
				t.Fatalf("iteration 4 crash carries Retries = %d, want 1", h.Retries)
			}
		}
	}
	if !found {
		t.Fatal("iteration 4 missing from history")
	}
}

// TestKillExhaustsAttempts: with a single-attempt policy, a host-down
// kill is recorded as a crash at the synthetic "fault" stage.
func TestKillExhaustsAttempts(t *testing.T) {
	opts := Options{Iterations: 16, Seed: 9, Workers: 4, Hosts: 2,
		Faults: mustSchedule(t, "down:1@100,up:1@100000,retry:1")}
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, "random", 9), &vm.Clock{}, 9)
	rep, err := eng.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	faultCrashes := 0
	for _, h := range rep.History {
		if h.Crashed && h.Stage == "fault" {
			faultCrashes++
			if h.Reason != string(fault.HostDown) {
				t.Fatalf("fault crash reason %q, want %q", h.Reason, fault.HostDown)
			}
			if h.Retries != 0 {
				t.Fatalf("single-attempt fault crash carries Retries = %d", h.Retries)
			}
		}
	}
	if faultCrashes == 0 {
		t.Fatal("no fault-stage crashes recorded under retry:1 and a permanent outage")
	}
	if rep.Retries != 0 {
		t.Fatalf("report.Retries = %d under a single-attempt policy", rep.Retries)
	}
}

// TestFaultEventStream: the fault events are themselves deterministic and
// complete — host transitions, injections, and retry scheduling all
// surface on the stream, identically across runs.
func TestFaultEventStream(t *testing.T) {
	opts := Options{Iterations: 48, Seed: 11, Workers: 8, Hosts: 4,
		Faults: mustSchedule(t, "down:1@150,up:1@500,preempt:3@200,buildfail:7#1,retry:3/20/2")}
	collect := func() []string {
		m := smallLinux(t)
		app := apps.Nginx()
		eng := NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, "random", 11), &vm.Clock{}, 11)
		sess, err := eng.NewSession(opts)
		if err != nil {
			t.Fatal(err)
		}
		var log []string
		sess.AddObserver(func(ev Event) {
			switch e := ev.(type) {
			case HostStateChanged:
				log = append(log, fmt.Sprintf("host %d up=%v at %.1f", e.Host, e.Up, e.AtSec))
			case FaultInjected:
				log = append(log, fmt.Sprintf("fault %s iter=%d attempt=%d worker=%d at %.1f",
					e.Kind, e.Iter, e.Attempt, e.Worker, e.AtSec))
			case RetryScheduled:
				log = append(log, fmt.Sprintf("retry iter=%d attempt=%d at %.1f", e.Iter, e.Attempt, e.NotBeforeSec))
			}
		})
		if _, err := sess.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := collect(), collect()
	if len(a) == 0 {
		t.Fatal("no fault events emitted")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("fault event stream diverged between identical runs")
	}
	var sawDown, sawUp, sawFault, sawRetry bool
	for _, line := range a {
		switch {
		case line == "host 1 up=false at 150.0":
			sawDown = true
		case line == "host 1 up=true at 500.0":
			sawUp = true
		}
		if len(line) >= 5 && line[:5] == "fault" {
			sawFault = true
		}
		if len(line) >= 5 && line[:5] == "retry" {
			sawRetry = true
		}
	}
	if !sawDown || !sawUp || !sawFault || !sawRetry {
		t.Fatalf("event stream incomplete: down=%v up=%v fault=%v retry=%v\n%v",
			sawDown, sawUp, sawFault, sawRetry, a)
	}
}

// TestLocalityDispatchDeterministic: the locality policy is as
// reproducible as static placement and never loses observations.
func TestLocalityDispatchDeterministic(t *testing.T) {
	opts := Options{Iterations: 48, Seed: 3, Workers: 8, Hosts: 4, CacheCapacity: 2,
		Dispatch: DispatchLocality}
	run := func() *Report {
		m := simos.NewLinux(simos.LinuxOptions{FillerRuntime: 10, FillerCompile: 20, Seed: 1})
		app := apps.Nginx()
		eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandomMutate(m.Space, 2, 3), &vm.Clock{}, 3)
		rep, err := eng.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if reportHash(t, a) != reportHash(t, b) {
		t.Fatal("locality dispatch diverged between identical runs")
	}
	if len(a.History) != 48 {
		t.Fatalf("history has %d of 48 iterations", len(a.History))
	}
	if a.TransferSavedSec < 0 {
		t.Fatalf("negative TransferSavedSec %g", a.TransferSavedSec)
	}
}

// TestOptionsValidateFaults: dispatch and schedule validation surfaces at
// session construction, not at run time.
func TestOptionsValidateFaults(t *testing.T) {
	base := Options{Iterations: 10, Seed: 1, Workers: 4, Hosts: 2}
	cases := []struct {
		name    string
		mutate  func(*Options)
		wantErr bool
	}{
		{"static ok", func(o *Options) { o.Dispatch = DispatchStatic }, false},
		{"locality ok", func(o *Options) { o.Dispatch = DispatchLocality }, false},
		{"unknown dispatch", func(o *Options) { o.Dispatch = "gravity" }, true},
		{"locality without cache", func(o *Options) { o.Dispatch = DispatchLocality; o.DisableCache = true }, true},
		{"host out of fleet", func(o *Options) {
			o.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.HostDown, Host: 5, AtSec: 1}}}
		}, true},
		{"worker out of fleet", func(o *Options) {
			o.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.WorkerPreempt, Worker: 9, AtSec: 1}}}
		}, true},
		{"churn on one host", func(o *Options) {
			o.Workers, o.Hosts = 1, 0
			o.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.HostDown, Host: 0, AtSec: 1}}}
		}, true},
		{"valid schedule", func(o *Options) {
			o.Faults = &fault.Schedule{Events: []fault.Event{
				{Kind: fault.HostDown, Host: 1, AtSec: 100}, {Kind: fault.HostUp, Host: 1, AtSec: 200}}}
		}, false},
	}
	for _, tc := range cases {
		o := base
		tc.mutate(&o)
		err := o.Validate()
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", tc.name, err, tc.wantErr)
		}
	}
}

// TestOneWorkerBackoffWaitIsIdle: a one-worker session with nothing left
// to dispatch but a retry still in backoff waits it out as idle time, as
// a multi-worker session does: the wait moves ElapsedSec and IdleSec, not
// ComputeSec.
func TestOneWorkerBackoffWaitIsIdle(t *testing.T) {
	opts := Options{Iterations: 20, Seed: 3, Faults: mustSchedule(t, "bootfail:19#1,retry:3/15/2")}
	rep := parallelRun(t, "random", 3, opts)
	if len(rep.History) != 20 || rep.Retries != 1 {
		t.Fatalf("%d observations, %d retries; want 20 and 1", len(rep.History), rep.Retries)
	}
	if math.Abs(rep.IdleSec-15) > 1e-9 {
		t.Errorf("idle %.6fs, want the 15s backoff", rep.IdleSec)
	}
	if d := rep.ElapsedSec - rep.ComputeSec - rep.IdleSec; math.Abs(d) > 1e-9 {
		t.Errorf("elapsed %.6f ≠ compute %.6f + idle %.6f", rep.ElapsedSec, rep.ComputeSec, rep.IdleSec)
	}
}
