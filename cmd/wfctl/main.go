// Command wfctl creates and runs Wayfinder specialization jobs from YAML
// job files, mirroring the workflow of the paper's artifact
// ("wfctl create ./job.yaml && wfctl start ... -s random $ID").
//
// Usage:
//
//	wfctl create job.yaml                   # validate and summarize a job
//	wfctl start -s deeptune job.yaml        # run the search session
//	wfctl start -s random -workers 8 job.yaml
//	wfctl start -s random -workers 8 -async job.yaml
//	wfctl start -s random -workers 8 -async -staleness 2 -straggler 4 job.yaml
//	wfctl start -s random -workers 8 -hosts 4 job.yaml
//	wfctl start -s random -workers 8 -hosts 4 -faults "down:1@300,up:1@900,retry:3/20/2" job.yaml
//	wfctl start -s random -workers 8 -hosts 4 -dispatch locality job.yaml
//	wfctl start -s random -workers 8 -no-cache job.yaml
//	wfctl start -s bayesian -gp-refit job.yaml
//	wfctl start -s bayesian -gp-window 512 job.yaml
//	wfctl start -s random -json job.yaml
//	wfctl start -s random -progress job.yaml    # live one-line status
//	wfctl start -s random -timeout 30s job.yaml # wall-clock bound, partial report
//
// The target OS named in the job file selects the simulated model
// ("linux", "unikraft", "linux-riscv"); the app field selects the
// workload; metric selects performance/memory/score.
//
// start drives the Session API: the session streams typed events (which
// -progress renders live) and honors context cancellation (which -timeout
// wires to a real-time deadline — the session's partial report is printed
// when it fires).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"wayfinder"
	"wayfinder/internal/configspace"
	"wayfinder/internal/core"
	"wayfinder/internal/fault"
	"wayfinder/internal/search"
	"wayfinder/internal/wfd"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "create":
		cmdCreate(os.Args[2:])
	case "start":
		cmdStart(os.Args[2:])
	case "submit":
		cmdSubmit(os.Args[2:])
	case "jobs":
		cmdJobs(os.Args[2:])
	case "status":
		cmdStatus(os.Args[2:])
	case "attach":
		cmdAttach(os.Args[2:])
	case "report":
		cmdReport(os.Args[2:])
	case "cancel":
		cmdCancel(os.Args[2:])
	case "corpus":
		cmdCorpus(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: wfctl <command> [flags] ...
  local:  create job.yaml | start [flags] job.yaml
  daemon: submit -d addr [flags] job.yaml | jobs | status [id] |
          attach id | report [-wait] id | cancel id   (all take -d addr)
  corpus: corpus ls|show|gc -dir <corpus-dir> ...`)
	os.Exit(2)
}

func loadJob(path string) *configspace.Job {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	job, err := configspace.ParseJobYAML(string(data))
	if err != nil {
		fatal(err)
	}
	return job
}

func cmdCreate(args []string) {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	job := loadJob(fs.Arg(0))
	census := job.Space.Census()
	fmt.Printf("job %q validated\n", job.Name)
	fmt.Printf("  os=%s app=%s metric=%s maximize=%v\n", job.OS, job.App, job.Metric, job.Maximize)
	fmt.Printf("  parameters: %d (compile=%d boot=%d runtime=%d)\n",
		job.Space.Len(),
		census.CompileBool+census.CompileTristate+census.CompileString+census.CompileHex+census.CompileInt,
		census.Boot, census.Runtime)
	fmt.Printf("  log10 search-space size: %.1f\n", job.Space.LogCardinality())
}

func cmdStart(args []string) {
	fs := flag.NewFlagSet("start", flag.ExitOnError)
	strategy := fs.String("s", "deeptune", "search strategy: random, grid, bayesian, deeptune, unicorn")
	iters := fs.Int("l", 0, "iteration budget override")
	seed := fs.Uint64("seed", 1, "session seed")
	workers := fs.Int("workers", 1, "concurrent evaluation workers")
	async := fs.Bool("async", false, "use the event-driven asynchronous scheduler (no round barrier)")
	staleness := fs.Int("staleness", -1, "async staleness bound: max unobserved in-flight evaluations a proposal may lag behind (0 = synchronous rounds; needs -async; omit for unbounded asynchrony)")
	straggler := fs.Float64("straggler", 1, "slow the last worker by this factor (models a straggler machine)")
	hosts := fs.Int("hosts", 1, "split the workers across this many simulated hosts (each with its own artifact-store partition)")
	noCache := fs.Bool("no-cache", false, "disable the shared content-addressed artifact store (per-worker image reuse only)")
	gpRefit := fs.Bool("gp-refit", false, "force the bayesian surrogate back to full O(n³) refits per observation (the pre-incremental baseline, for decision-cost comparisons)")
	gpWindow := fs.Int("gp-window", 0, "bound the learned surrogate to a sliding window of this many recent observations (min 8; 0 = unbounded); keeps per-decision cost flat on long sessions (bayesian/deeptune only)")
	faults := fs.String("faults", "", "deterministic fault schedule in the fault DSL, e.g. \"down:1@300,up:1@900,preempt:3@120,buildfail:7#1,retry:3/20/2\"")
	dispatch := fs.String("dispatch", "", "placement policy: static (default) or locality (prefer hosts that already hold the configuration's image)")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	progress := fs.Bool("progress", false, "render a live one-line status from the session event stream")
	timeout := fs.Duration("timeout", 0, "real-time limit for the session; when it fires the partial report is printed")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	flags := startFlags{
		Workers: *workers, Async: *async, Staleness: *staleness, Hosts: *hosts,
		GPRefit: *gpRefit, GPWindow: *gpWindow, Strategy: *strategy,
		Faults: *faults, Dispatch: *dispatch,
		Seed: *seed, Iterations: *iters, NoCache: *noCache,
	}
	if err := checkStartFlags(fs, flags); err != nil {
		fatal(err)
	}
	spec := startSpec(loadJob(fs.Arg(0)), flags)
	if *workers <= 1 && (*async || *straggler > 1) {
		fmt.Fprintln(os.Stderr, "wfctl: -async/-staleness/-straggler need -workers > 1; running sequentially")
	}
	var observer func(core.Event)
	if *progress {
		observer = renderProgress
	}
	session, err := newStartSession(spec, *straggler, *gpRefit, observer)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	report, err := session.Run(ctx)
	if *progress {
		fmt.Fprintln(os.Stderr) // terminate the live status line
	}
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "wfctl: -timeout %s elapsed after %d observations; reporting the partial session\n",
			*timeout, len(report.History))
	} else if err != nil {
		fatal(err)
	}
	if *asJSON {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	fmt.Printf("session complete: %d iterations, %.1f virtual minutes, %d crashes (%.1f%%)\n",
		len(report.History), report.ElapsedSec/60, report.Crashes, 100*report.CrashRate())
	if report.Workers > 1 {
		scheduler := "round-barrier"
		if report.Async {
			scheduler = fmt.Sprintf("async, staleness %d", report.Staleness)
		}
		fleet := ""
		if report.Hosts > 1 {
			fleet = fmt.Sprintf(" on %d hosts", report.Hosts)
		}
		fmt.Printf("workers: %d%s (%s; compute %.1f virtual minutes, idle %.1f, utilization %.0f%%)\n",
			report.Workers, fleet, scheduler, report.ComputeSec/60, report.IdleSec/60, 100*report.Utilization)
	}
	// Hits+misses > 0 means the store was consulted; with -no-cache both
	// stay 0 and no cache statistics are claimed.
	if report.CacheHits+report.CacheMisses > 0 {
		fmt.Printf("artifact cache: %d builds, %d hits (%d cross-host), %d misses, %d builds saved\n",
			report.Builds, report.CacheHits, report.CacheRemoteHits, report.CacheMisses, report.BuildsSaved)
	}
	if report.Best != nil {
		fmt.Printf("best %s: %.2f %s (found after %.0f virtual seconds)\n",
			report.Metric, report.Best.Metric, report.Unit, report.BestTimeSec)
		fmt.Printf("configuration: %s\n", report.Best.ConfigString)
	} else {
		fmt.Println("no viable configuration found")
	}
}

// startFlags carries the flag values checkStartFlags inspects and
// startSpec folds into a job spec.
type startFlags struct {
	Workers    int
	Async      bool
	Staleness  int
	Hosts      int
	GPRefit    bool
	GPWindow   int
	Strategy   string
	Faults     string
	Dispatch   string
	Seed       uint64
	Iterations int // -l override; 0 keeps the job file's budget
	NoCache    bool
}

// startSpec describes a local run as the daemon's job spec: the job file
// plus the flags that have a spec field. A job file with no budget at all
// runs 100 iterations.
func startSpec(job *configspace.Job, f startFlags) wfd.JobSpec {
	spec := wfd.SpecFromJob(job)
	spec.Searcher = f.Strategy
	spec.Seed = f.Seed
	if f.Iterations > 0 {
		spec.Iterations = f.Iterations
	}
	if spec.Iterations == 0 && spec.TimeBudgetSec == 0 { //wfvet:ignore floateq 0 is the unset-field sentinel, never a computed value
		spec.Iterations = 100
	}
	spec.Workers = f.Workers
	spec.Hosts = f.Hosts
	if f.Async {
		spec.Async, spec.Staleness = true, f.Staleness
	}
	spec.DisableCache = f.NoCache
	spec.SurrogateWindow = f.GPWindow
	spec.FaultSchedule = f.Faults
	spec.Dispatch = f.Dispatch
	return spec
}

// newStartSession builds the spec's session through the daemon's
// assembly, then applies the two knobs a journaled spec does not carry:
// a straggler (the last of several workers slowed by the given factor)
// and, for bayesian, full GP refits instead of incremental updates.
func newStartSession(spec wfd.JobSpec, straggler float64, gpRefit bool, observer func(core.Event)) (*wayfinder.Session, error) {
	model, app, metric, searcher, err := spec.Assemble()
	if err != nil {
		return nil, err
	}
	if b, ok := searcher.(*search.Bayesian); ok {
		b.SetSurrogateRefit(gpRefit)
	}
	opts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	if straggler > 1 && opts.Workers > 1 {
		opts.WorkerSpeedFactors = core.StragglerFleet(opts.Workers, straggler)
	}
	return wayfinder.New(model, app, wayfinder.WithMetric(metric), wayfinder.WithSearcher(searcher),
		wayfinder.WithOptions(opts), wayfinder.WithObserver(observer))
}

// checkStartFlags rejects the flag combinations only the flag layer can
// see: whether -staleness was explicitly passed, which strategy
// -gp-refit/-gp-window ride on, explicit non-positive -workers/-hosts
// (the library treats zero as "default", so only the CLI can tell
// `-workers 0` from the flag being omitted), an unparseable -faults DSL,
// and an unknown -dispatch name. Everything else expressible over
// core.Options — hosts > workers, staleness vs async, -no-cache vs -hosts,
// window < 8, fault events out of fleet range, locality without a cache —
// is validated centrally by Options.Validate, shared with wfbench and
// library callers. fs may be nil (table tests) — then -staleness is
// treated as passed whenever it differs from its -1 default.
func checkStartFlags(fs *flag.FlagSet, f startFlags) error {
	stalenessSet := f.Staleness != -1
	if fs != nil {
		stalenessSet = false
		fs.Visit(func(fl *flag.Flag) {
			if fl.Name == "staleness" {
				stalenessSet = true
			}
		})
	}
	if f.GPRefit && f.Strategy != "bayesian" {
		return fmt.Errorf("-gp-refit only applies to the bayesian strategy's GP surrogate (got -s %s)", f.Strategy)
	}
	if f.GPWindow != 0 && f.Strategy != "bayesian" && f.Strategy != "deeptune" {
		return fmt.Errorf("-gp-window only applies to the learned strategies' surrogates (bayesian, deeptune; got -s %s)", f.Strategy)
	}
	if stalenessSet && !f.Async {
		return fmt.Errorf("-staleness only applies to the async scheduler; add -async")
	}
	if stalenessSet && f.Staleness < 0 {
		return fmt.Errorf("-staleness must be ≥ 0 (omit the flag for unbounded asynchrony)")
	}
	if f.Workers < 1 {
		return fmt.Errorf("-workers must be ≥ 1 (got %d)", f.Workers)
	}
	if f.Hosts < 1 {
		return fmt.Errorf("-hosts must be ≥ 1 (got %d)", f.Hosts)
	}
	if _, err := fault.Parse(f.Faults); err != nil {
		return fmt.Errorf("-faults: %v", err)
	}
	switch f.Dispatch {
	case "", core.DispatchStatic, core.DispatchLocality:
	default:
		return fmt.Errorf("-dispatch must be %s or %s (got %q)", core.DispatchStatic, core.DispatchLocality, f.Dispatch)
	}
	return nil
}

// renderProgress renders the live one-line session status from the typed
// event stream: observation position, incumbent best, utilization, and
// cache effectiveness, updated in place on stderr. Fault-injection events
// scroll past as their own lines; the status line redraws beneath them.
func renderProgress(ev core.Event) {
	switch e := ev.(type) {
	case core.HostStateChanged:
		state := "down"
		if e.Up {
			state = "up"
		}
		fmt.Fprintf(os.Stderr, "\r\033[Khost %d %s at t=%.0fs\n", e.Host, state, e.AtSec)
		return
	case core.FaultInjected:
		fmt.Fprintf(os.Stderr, "\r\033[Kfault %s hit iter %d (attempt %d, worker %d) at t=%.0fs\n",
			e.Kind, e.Iter, e.Attempt, e.Worker, e.AtSec)
		return
	case core.RetryScheduled:
		fmt.Fprintf(os.Stderr, "\r\033[Kretry iter %d (attempt %d) not before t=%.0fs\n",
			e.Iter, e.Attempt, e.NotBeforeSec)
		return
	}
	p, ok := ev.(core.Progress)
	if !ok {
		return
	}
	total := "?"
	if p.Iterations > 0 {
		total = fmt.Sprintf("%d", p.Iterations)
	}
	best := "best -"
	if p.Best != nil {
		best = fmt.Sprintf("best %.2f", p.Best.Metric)
	}
	fmt.Fprintf(os.Stderr, "\r\033[Kiter %d/%s  %s  crashes %d  util %.0f%%  cache %d hits / %d builds saved",
		p.Observed, total, best, p.Crashes, 100*p.Utilization, p.CacheHits, p.BuildsSaved)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wfctl: %v\n", err)
	os.Exit(1)
}
