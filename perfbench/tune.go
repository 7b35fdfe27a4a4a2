package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	wayfinder "wayfinder"
	"wayfinder/internal/configspace"
	"wayfinder/internal/search"
	"wayfinder/internal/wfd"
	"wayfinder/perfbench/stat"
)

// tuneSpec shapes a tune-* workload: one closed-loop client running
// back-to-back sequential sessions of obs observations each, cycling over
// cycle distinct session seeds. Every session of one cycle index must
// produce the same report, and the workload digest folds the cycle's
// reports in index order, so it does not depend on how many sessions fit
// in the run.
type tuneSpec struct {
	searcher   string
	obs, cycle int
}

var tuneSpecs = map[string]tuneSpec{
	"tune-bayesian": {searcher: "bayesian", obs: 200, cycle: 3},
	"tune-deeptune": {searcher: "deeptune", obs: 80, cycle: 3},
}

// minSteps is the smallest step sample a tune-* run reports: p95 needs
// stat.MinTail samples beyond it.
const minSteps = 200

// setupReps is the fewest set-up samples a run takes; setup_s is their
// median. A set-up takes 0.3 to 60 ms, too little to time alone on a
// shared host, so each sample is the mean over a batch of set-ups lasting
// at least setupBatch. The host's speed drifts over seconds, so the
// samples are spread over the pass — taken before each session or round —
// rather than taken all at once, which would report one moment's speed.
const (
	setupReps  = 9
	setupBatch = 100 * time.Millisecond
)

// tuneSession is the input of one session: the model, workload and a
// fresh searcher, built the same way for New and for Resume.
type tuneSession struct {
	model    *wayfinder.Model
	app      *wayfinder.App
	searcher wayfinder.Searcher
}

func newTuneSession(kind string, seed uint64) tuneSession {
	model := wayfinder.NewLinuxModel()
	// Runtime-parameter search, as in the quickstart: on the full Linux
	// space nearly every configuration crashes, the surrogate sees almost
	// no data and the per-step cost depends on how lucky the seed is.
	model.Space.Favor(wayfinder.CompileTime, 0)
	app := wayfinder.AppNginx()
	maximize := (&wayfinder.PerfMetric{App: app}).Maximize()
	var s wayfinder.Searcher
	switch kind {
	case "bayesian":
		s = wayfinder.NewBayesianSearcher(model.Space, maximize, seed)
	case "deeptune":
		cfg := wayfinder.DefaultDeepTuneConfig()
		cfg.Seed = seed
		s = wayfinder.NewDeepTuneSearcher(model.Space, maximize, cfg)
	default:
		s = wayfinder.NewRandomSearcher(model.Space, seed)
	}
	return tuneSession{model: model, app: app, searcher: s}
}

func (ts tuneSession) open(obs int, seed uint64, extra ...wayfinder.Option) (*wayfinder.Session, error) {
	opts := append([]wayfinder.Option{
		wayfinder.WithSearcher(ts.searcher),
		wayfinder.WithBudget(obs, 0),
		wayfinder.WithSeed(seed),
	}, extra...)
	return wayfinder.New(ts.model, ts.app, opts...)
}

// timedSearcher wraps a Searcher and measures every Propose and Observe
// from outside: host time, bytes and allocations, and a span per call.
// It forwards checkpoints, so sessions using it still snapshot. It is
// transparent — the session's report is byte-identical with or without
// it — for every searcher the sequential scheduler drives through the
// plain Searcher interface; core reaches past it only for corpus DeepTune
// weights, which tune-* sessions do not use. The traced run checks this
// on every session against the untraced pass and fails when it breaks.
type timedSearcher struct {
	inner            wayfinder.Searcher
	tr               *tracer
	parent           *int // current step span
	trace            string
	propose, observe *opStats
	mem              runtime.MemStats
}

// opStats accumulates one searcher method's cost.
type opStats struct {
	lat           []float64 // µs per call
	busy          time.Duration
	bytes, allocs uint64
}

func (w *timedSearcher) Name() string                { return w.inner.Name() }
func (w *timedSearcher) DecisionCost() time.Duration { return w.inner.DecisionCost() }

func (w *timedSearcher) Propose() *configspace.Config {
	var c *configspace.Config
	w.measure(w.propose, "propose", func() { c = w.inner.Propose() })
	return c
}

func (w *timedSearcher) Observe(o search.Observation) {
	w.measure(w.observe, "observe", func() { w.inner.Observe(o) })
}

func (w *timedSearcher) measure(op *opStats, name string, call func()) {
	id := w.tr.begin(name, *w.parent, w.trace)
	runtime.ReadMemStats(&w.mem)
	b0, a0 := w.mem.TotalAlloc, w.mem.Mallocs
	t0 := time.Now()
	call()
	d := time.Since(t0)
	runtime.ReadMemStats(&w.mem)
	w.tr.end(id)
	op.lat = append(op.lat, us(d))
	op.busy += d
	op.bytes += w.mem.TotalAlloc - b0
	op.allocs += w.mem.Mallocs - a0
}

func (w *timedSearcher) Checkpoint() ([]byte, error) {
	ck, ok := w.inner.(search.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("searcher %q does not checkpoint", w.inner.Name())
	}
	return ck.Checkpoint()
}

func (w *timedSearcher) Restore(data []byte) error {
	ck, ok := w.inner.(search.Checkpointable)
	if !ok {
		return fmt.Errorf("searcher %q does not checkpoint", w.inner.Name())
	}
	return ck.Restore(data)
}

// tunePass is what one pass of a tune-* workload measured. Times are wall
// clock unless named CPU.
type tunePass struct {
	sessions, failed int
	problems         []string
	refs             []string // report digest per cycle index
	obs              int
	timed            time.Duration // session construction + stepping
	timedCPU         time.Duration
	stepTotal        time.Duration
	decision         time.Duration
	stepLat          []float64 // ms per recorded Step(1)
	stepCPU          []float64 // CPU ms per recorded Step(1)
	restart          []float64 // s: Snapshot + Resume
	snapMS, resumeMS []float64
	encMS            []float64
	snapBytes        int
	encBytes         int
	endObs           int // observations of the sessions the end checks covered
	heapMB           []float64
	allocBytes       uint64
	mallocs          uint64
	gcs              uint32
	gcPause          time.Duration
	events           int
	propose, observe opStats
	setups           []float64 // s per set-up, one per batch
}

// runTunePass runs sessions back to back for at least `seconds`, at least
// one full cycle and at least minSteps steps. With a tracer it records
// spans, counts events and times the searcher through timedSearcher; ref
// (the untraced pass's per-index digests) then proves the wrapper
// transparent session by session. Without one it also takes a set-up
// sample before each session, outside the timed phase.
func runTunePass(spec tuneSpec, seed uint64, seconds time.Duration, tr *tracer, ref []string) (*tunePass, error) {
	p := &tunePass{refs: make([]string, spec.cycle)}
	root := tr.begin("workload", 0, "")
	defer tr.end(root)
	start := time.Now()
	for k := 0; k < spec.cycle || len(p.stepLat) < minSteps || time.Since(start) < seconds; k++ {
		if tr == nil {
			if err := p.sampleSetup(spec, seed); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		idx := k % spec.cycle
		sum, err := p.session(spec, sessionSeed(seed, idx), fmt.Sprintf("s%04d", k), tr, root)
		p.sessions++
		if err != nil {
			p.failed++
			p.problems = append(p.problems, fmt.Sprintf("session %d: %v", k, err))
			if p.failed > spec.cycle {
				break // a systematic error: stop instead of spinning for the whole run
			}
			continue
		}
		if ref != nil && sum != ref[idx] {
			p.problems = append(p.problems, fmt.Sprintf("traced session %d: report differs from the untraced pass; the searcher wrapper is not transparent", k))
		}
		switch {
		case p.refs[idx] == "":
			p.refs[idx] = sum
		case p.refs[idx] != sum:
			p.problems = append(p.problems, fmt.Sprintf("session %d: report differs from the first run of cycle index %d", k, idx))
		}
	}
	for tr == nil && len(p.setups) < setupReps {
		if err := p.sampleSetup(spec, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return p, nil
}

// session runs one session to completion and checks it, returning the
// digest of its canonical report.
func (p *tunePass) session(spec tuneSpec, seed uint64, trace string, tr *tracer, root int) (string, error) {
	sp := tr.begin("session", root, trace)
	defer tr.end(sp)
	var step int
	w0, c0 := time.Now(), cpuNow()
	ts := newTuneSession(spec.searcher, seed)
	var extra []wayfinder.Option
	if tr != nil {
		extra = append(extra, wayfinder.WithObserver(func(wayfinder.Event) { p.events++ }))
		ts.searcher = &timedSearcher{inner: ts.searcher, tr: tr, parent: &step, trace: trace,
			propose: &p.propose, observe: &p.observe}
	}
	sess, err := ts.open(spec.obs, seed, extra...)
	if err != nil {
		return "", fmt.Errorf("new: %w", err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for !sess.Done() {
		step = tr.begin("step", sp, trace)
		a, ca := time.Now(), cpuNow()
		n := sess.Step(1)
		d, cd := time.Since(a), cpuNow()-ca
		tr.end(step)
		p.stepTotal += d
		if n == 1 {
			p.stepLat = append(p.stepLat, ms(d))
			p.stepCPU = append(p.stepCPU, ms(cd))
		}
		p.obs += n
	}
	p.timed += time.Since(w0)
	p.timedCPU += cpuNow() - c0
	runtime.ReadMemStats(&m1)
	p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	p.mallocs += m1.Mallocs - m0.Mallocs
	p.gcs += m1.NumGC - m0.NumGC
	p.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	p.decision += sess.Usage().DecisionCost

	// Heap in use with the finished session still reachable.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.heapMB = append(p.heapMB, float64(m1.HeapAlloc)/(1<<20))

	// End-of-session layers: report encoding, snapshot, resume.
	id := tr.begin("report_encode", sp, trace)
	a := time.Now()
	rep, err := wfd.CanonicalReportJSON(sess.Report())
	enc := time.Since(a)
	tr.end(id)
	if err != nil {
		return "", fmt.Errorf("report: %w", err)
	}
	id = tr.begin("snapshot", sp, trace)
	a = time.Now()
	snap, err := sess.Snapshot()
	snapD := time.Since(a)
	tr.end(id)
	if err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	fresh := newTuneSession(spec.searcher, seed)
	id = tr.begin("resume", sp, trace)
	a = time.Now()
	resumed, err := wayfinder.Resume(fresh.model, fresh.app, snap, wayfinder.WithSearcher(fresh.searcher))
	resD := time.Since(a)
	tr.end(id)
	if err != nil {
		return "", fmt.Errorf("resume: %w", err)
	}
	rep2, err := wfd.CanonicalReportJSON(resumed.Report())
	if err != nil {
		return "", fmt.Errorf("resumed report: %w", err)
	}
	if !bytes.Equal(rep, rep2) {
		p.problems = append(p.problems, fmt.Sprintf("session %s: resumed report differs from the live one", trace))
	}
	p.encMS = append(p.encMS, ms(enc))
	p.snapMS = append(p.snapMS, ms(snapD))
	p.resumeMS = append(p.resumeMS, ms(resD))
	p.restart = append(p.restart, (snapD + resD).Seconds())
	p.snapBytes += len(snap)
	p.encBytes += len(rep)
	p.endObs += sess.Observed()
	sum := sha256.Sum256(rep)
	return hex.EncodeToString(sum[:]), nil
}

// sampleSetup times what a user pays before the first step — model,
// workload, searcher and session construction — over one batch.
func (p *tunePass) sampleSetup(spec tuneSpec, seed uint64) error {
	runtime.GC() // every batch starts from the same heap, whatever ran before
	a, n := time.Now(), 0
	for ; n == 0 || time.Since(a) < setupBatch; n++ {
		ts := newTuneSession(spec.searcher, seed)
		sess, err := ts.open(spec.obs, seed)
		if err != nil {
			return err
		}
		runtime.KeepAlive(sess)
	}
	p.setups = append(p.setups, time.Since(a).Seconds()/float64(n))
	return nil
}

// runTune is the tune-* workload: an untraced pass for the end-to-end
// metrics and, with trace, a second traced pass for the per-layer ones.
func runTune(spec tuneSpec, seed uint64, seconds time.Duration, trace bool) (*outcome, error) {
	a, err := runTunePass(spec, seed, seconds, nil, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: a.sessions,
		failed:    a.failed,
		problems:  a.problems,
		digest:    foldDigests(a.refs),
		base:      fmt.Sprintf("%d sessions × %d obs", a.sessions, spec.obs),
	}
	if !stat.TailOK(len(a.stepLat), 0.95) {
		out.problems = append(out.problems, fmt.Sprintf("only %d steps: p95 needs %d beyond it", len(a.stepLat), stat.MinTail))
		return out, nil
	}
	obsPerS := float64(a.obs) / a.timed.Seconds()
	out.e2e = []e2eValue{
		{"obs_per_s", "", obsPerS, fmt.Sprintf("%d obs in %.3f s (%.3f CPU s)", a.obs, a.timed.Seconds(), a.timedCPU.Seconds())},
		{"lat_p50_ms", "step_p50_ms", stat.Percentile(a.stepLat, 0.5), fmt.Sprintf("n=%d Step(1)", len(a.stepLat))},
		{"lat_tail_ms", "step_p95_ms", stat.Percentile(a.stepCPU, 0.95), fmt.Sprintf("n=%d, %d beyond, CPU", len(a.stepCPU), stat.Beyond(len(a.stepCPU), 0.95))},
		{"restart_s", "", stat.Median(a.restart), fmt.Sprintf("Snapshot+Resume at session end, median of %d", len(a.restart))},
		{"heap_live_mb", "", stat.Median(a.heapMB), fmt.Sprintf("median of %d post-GC samples", len(a.heapMB))},
		{"setup_s", "", stat.Median(a.setups), fmt.Sprintf("model+searcher+New, median of %d batches of >= %v", len(a.setups), setupBatch)},
	}
	if !trace {
		return out, nil
	}

	tr := newTracer()
	b, err := runTunePass(spec, seed, seconds, tr, a.refs)
	if err != nil {
		return nil, err
	}
	out.tr = tr
	out.attempted += b.sessions
	out.failed += b.failed
	out.problems = append(out.problems, b.problems...)
	if d := foldDigests(b.refs); d != out.digest {
		out.problems = append(out.problems, fmt.Sprintf("traced digest %s differs from untraced %s", d, out.digest))
	}
	out.notes = append(out.notes,
		fmt.Sprintf("search.propose: %d calls, %.1f ms busy; search.observe: %d calls, %.1f ms busy",
			len(b.propose.lat), ms(b.propose.busy), len(b.observe.lat), ms(b.observe.busy)),
		fmt.Sprintf("go: %d GC cycles, %.3f ms GC pause over %d obs", a.gcs, ms(a.gcPause), a.obs))
	obsB := float64(b.obs) / b.timed.Seconds()
	l := out.layers()
	l["search.decision.us_per_obs"] = us(a.decision) / float64(a.obs)
	setOp(l, "search.propose", b.propose, b.obs)
	setOp(l, "search.observe", b.observe, b.obs)
	l["core.step.self_us_per_obs"] = us(a.stepTotal-a.decision) / float64(a.obs)
	l["core.snapshot.ms"] = stat.Median(a.snapMS)
	l["core.snapshot.bytes_per_obs"] = float64(a.snapBytes) / float64(a.endObs)
	l["core.resume.ms"] = stat.Median(a.resumeMS)
	l["wfd.report_encode.ms"] = stat.Median(a.encMS)
	l["wfd.report_encode.bytes_per_obs"] = float64(a.encBytes) / float64(a.endObs)
	l["core.events.per_obs"] = float64(b.events) / float64(b.obs)
	l["go.alloc_bytes_per_obs"] = float64(a.allocBytes) / float64(a.obs)
	l["go.mallocs_per_obs"] = float64(a.mallocs) / float64(a.obs)
	l["go.gc_cycles_per_kobs"] = 1000 * float64(a.gcs) / float64(a.obs)
	l["go.gc_pause_us_per_obs"] = us(a.gcPause) / float64(a.obs)
	l["trace.obs_per_s_untraced"] = obsPerS
	l["trace.obs_per_s_traced"] = obsB
	l["trace.overhead_pct"] = 100 * (obsPerS - obsB) / obsPerS
	return out, nil
}

// setOp sets a searcher method's per-layer metrics; its busy time is
// spread over the obs observations of the pass.
func setOp(l map[string]float64, prefix string, op opStats, obs int) {
	n := float64(len(op.lat))
	if n == 0 {
		return
	}
	l[prefix+".p50_us"] = stat.Percentile(op.lat, 0.5)
	l[prefix+".busy_us_per_obs"] = us(op.busy) / float64(obs)
	l[prefix+".bytes_per_op"] = float64(op.bytes) / n
	l[prefix+".allocs_per_op"] = float64(op.allocs) / n
}
