package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	wayfinder "wayfinder"
	"wayfinder/internal/corpus"
	"wayfinder/internal/wfd"
	"wayfinder/perfbench/stat"
)

// The serve workload's shape: serveTenants tenants each submit
// serveJobsPerTenant jobs, a window of consecutive specs rotating over
// serveSpecCount distinct ones, so every spec is submitted once at each
// queue position — some copies finish before the mid-run restart, others
// are interrupted by it.
const (
	serveTenants       = 18
	serveJobsPerTenant = 6
	serveSpecCount     = 18
	// serveSeedSessions is the number of sessions per OS deposited into the
	// corpus at set-up, and serveSeedObs their length.
	serveSeedSessions = 3
	serveSeedObs      = 32
	warmStartK        = 3
	// setupsPerRound is how many set-up samples are taken before each round.
	setupsPerRound = 3
	// statusPoll is how often the generator reads the job table to find
	// the half-demand point and each job's completion.
	statusPoll = 5 * time.Millisecond
)

// serveSpecs returns the distinct job specs. Every job uses the random
// searcher (runtime parameters only on Linux). Spec i runs on
// [linux, linux, unikraft][i%3] under [sequential, round-barrier W=4,
// async W=4][(i/3)%3]; six of the eighteen warm-start from the corpus,
// one per OS and scheduler. Submit costs differ by class — unikraft cold <
// linux cold < unikraft warm < linux warm — and this mix of 1/6, 1/2, 1/6
// and 1/6 puts the median Submit well inside the linux-cold class and the
// p90 inside the linux-warm one, so neither percentile sits on the edge
// between two classes. Budgets of 96, 128 and 160 observations get each
// job journaled more than once at the daemon's default JournalEvery.
func serveSpecs(seed uint64) []wfd.JobSpec {
	specs := make([]wfd.JobSpec, serveSpecCount)
	for i := range specs {
		sp := wfd.JobSpec{
			Name:       fmt.Sprintf("spec%02d", i),
			OS:         []string{"linux", "linux", "unikraft"}[i%3],
			App:        "nginx",
			Metric:     "throughput",
			Searcher:   "random",
			Seed:       sessionSeed(seed, 100+i),
			Iterations: 96 + 32*((i+i/3)%3),
		}
		if sp.OS == "linux" {
			// On the full Linux space nearly every random configuration
			// crashes, leaving nothing to deposit.
			sp.Favor = map[string]float64{"compile": 0}
		}
		switch (i / 3) % 3 {
		case 1:
			sp.Workers = 4
		case 2:
			sp.Workers, sp.Async, sp.Staleness = 4, true, -1
		}
		if warmSpec(i) {
			sp.Corpus, sp.WarmStartK = true, warmStartK
		}
		specs[i] = sp
	}
	return specs
}

// warmSpec reports whether spec i warm-starts from the corpus: the first
// and third OS slot of the second half.
func warmSpec(i int) bool { return i >= serveSpecCount/2 && i%3 != 1 }

// serveJob is one admitted job. key (tenant/spec) names its spans, which
// open before the daemon assigns the id.
type serveJob struct {
	id, key string
	spec    int // index into serveSpecs
}

// serveRound is what one admit → serve → restart → drain cycle measured.
type serveRound struct {
	digest              string
	jobs, failed        int
	problems            []string
	obs                 int
	timed               time.Duration
	submitMS            []float64
	coldUS, warmUS      []float64
	turnMS              []float64 // Submit → job done, per job
	restart             time.Duration
	shutdown, recover   time.Duration
	heapMB              float64
	quanta, served      float64
	builds, dupBuilds   float64
	journalBytes        float64
	journalFiles        float64
	recovered, resumed  float64
	events              float64
	replayUS, fetchUS   []float64
	corpusOpen          time.Duration
	entriesBefore       float64
	entriesAfter        float64
	interruptedChecked  int
	allocBytes, mallocs uint64
	gcs                 uint32
	gcPause             time.Duration
}

// serveDirs is one round's fresh working directory: a seeded corpus and an
// empty state dir.
type serveDirs struct {
	root, corpus, state string
}

// serveSetup creates a round's directories and seeds its corpus by running
// short random sessions on both models that deposit their outcomes.
func serveSetup(work string, seed uint64) (serveDirs, error) {
	root, err := os.MkdirTemp(work, "serve-")
	if err != nil {
		return serveDirs{}, err
	}
	d := serveDirs{root: root, corpus: filepath.Join(root, "corpus"), state: filepath.Join(root, "state")}
	st, err := corpus.Open(d.corpus)
	if err != nil {
		return d, err
	}
	for i := 0; i < 2*serveSeedSessions; i++ {
		model := wayfinder.NewLinuxModel()
		model.Space.Favor(wayfinder.CompileTime, 0)
		if i%2 == 1 {
			model = wayfinder.NewUnikraftModel()
		}
		s := sessionSeed(seed, 200+i)
		sess, err := wayfinder.New(model, wayfinder.AppNginx(),
			wayfinder.WithSearcher(wayfinder.NewRandomSearcher(model.Space, s)),
			wayfinder.WithBudget(serveSeedObs, 0), wayfinder.WithSeed(s),
			wayfinder.WithCorpusStore(st))
		if err != nil {
			return d, err
		}
		if _, err := sess.Run(context.Background()); err != nil {
			return d, err
		}
	}
	return d, nil
}

// follower is the traced run's event client: it attaches to each job in
// turn, replays its backlog and follows it live until the job ends or the
// daemon goes away.
type follower struct {
	stop     chan struct{}
	wg       sync.WaitGroup
	replayUS []float64
}

func startFollower(d *wfd.Daemon, jobs []serveJob, tr *tracer, parent int) *follower {
	f := &follower{stop: make(chan struct{})}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for _, j := range jobs {
			id := tr.begin("attach", parent, j.key)
			a := time.Now()
			_, ch, cancel, err := d.Attach(j.id, 0)
			f.replayUS = append(f.replayUS, us(time.Since(a)))
			tr.end(id)
			if err != nil {
				continue
			}
			for live := true; live; {
				select {
				case _, live = <-ch:
				case <-f.stop:
					cancel()
					return
				}
			}
			cancel()
		}
	}()
	return f
}

// halt stops the follower and waits for it.
func (f *follower) halt() []float64 {
	if f == nil {
		return nil
	}
	close(f.stop)
	f.wg.Wait()
	return f.replayUS
}

// runServeRound admits every job under Hold, releases the daemon, shuts
// it down at half of the total demand, restarts it on the same state dir
// and drains the rest. The timed phase runs from the first wfd.New to the
// last job's completion.
func runServeRound(dirs serveDirs, specs []wfd.JobSpec, tr *tracer, parent int) (*serveRound, error) {
	r := &serveRound{}
	rid := tr.begin("round", parent, "")
	defer tr.end(rid)

	a := time.Now()
	st, err := corpus.Open(dirs.corpus)
	r.corpusOpen = time.Since(a)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	r.entriesBefore = float64(st.Len())

	cfg := wfd.Config{StateDir: dirs.state, CorpusDir: dirs.corpus, Steppers: runtime.NumCPU()}
	// Start every round from the same heap and a quiet disk: the previous
	// round leaves a few hundred MB of garbage and of written and deleted
	// journal files, and collecting the one or writing back the other
	// during admission would land on whichever Submit calls overlapped it.
	runtime.GC()
	syscall.Sync()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	d, err := wfd.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("new: %w", err)
	}
	d.Hold()
	var jobs []serveJob
	jobSpan := map[string]int{}
	submitAt := map[string]time.Time{}
	total := 0
	for k := 0; k < serveJobsPerTenant; k++ {
		for t := 0; t < serveTenants; t++ {
			i := (t + k) % serveSpecCount
			sp := specs[i]
			sp.Tenant = fmt.Sprintf("tenant%02d", t)
			key := sp.Tenant + "/" + sp.Name
			js := tr.begin("job", rid, key)
			id := tr.begin("submit", js, key)
			a := time.Now()
			jid, err := d.Submit(sp)
			submitAt[jid] = a
			dur := time.Since(a)
			tr.end(id)
			if err != nil {
				r.failed++
				r.jobs++
				r.problems = append(r.problems, fmt.Sprintf("submit %s/%s: %v", sp.Tenant, sp.Name, err))
				tr.end(js)
				continue
			}
			r.jobs++
			jobSpan[jid] = js
			r.submitMS = append(r.submitMS, ms(dur))
			if sp.WarmStartK > 0 {
				r.warmUS = append(r.warmUS, us(dur))
			} else {
				r.coldUS = append(r.coldUS, us(dur))
			}
			jobs = append(jobs, serveJob{id: jid, key: key, spec: i})
			total += sp.Iterations
		}
	}
	id := tr.begin("release", rid, "")
	d.Release()
	tr.end(id)
	var fol *follower
	defer func() { fol.halt() }() // error paths; halted followers are nil
	if tr != nil {
		fol = startFollower(d, jobs, tr, rid)
	}
	// done records each job's turnaround the first time the job table shows
	// it terminal, and reports the observations served and the jobs still
	// active.
	turn := map[string]bool{}
	done := func(d *wfd.Daemon) (served, active int) {
		now := time.Now()
		for _, js := range d.Jobs() {
			served += js.Observed
			switch {
			case js.State != "done" && js.State != "failed" && js.State != "canceled":
				active++
			case !turn[js.ID]:
				turn[js.ID] = true
				r.turnMS = append(r.turnMS, ms(now.Sub(submitAt[js.ID])))
				tr.end(jobSpan[js.ID])
			}
		}
		return served, active
	}
	for served, active := done(d); served < total/2 && active > 0; served, active = done(d) {
		time.Sleep(statusPoll)
	}

	// Restart at half demand.
	id = tr.begin("shutdown", rid, "")
	a = time.Now()
	d.Shutdown()
	r.shutdown = time.Since(a)
	tr.end(id)
	replay := fol.halt()
	fol = nil
	before := d.Status()
	doneBefore := map[string]bool{}
	var interrupted []serveJob
	byID := map[string]serveJob{}
	for _, j := range jobs {
		byID[j.id] = j
	}
	for _, js := range d.Jobs() {
		switch {
		case js.State == "done":
			doneBefore[js.ID] = true
		case js.Observed > 0:
			interrupted = append(interrupted, byID[js.ID])
		}
		r.events += float64(js.Events)
	}
	if err := r.readJournal(dirs.state); err != nil {
		return nil, err
	}
	id = tr.begin("recover", rid, "")
	a = time.Now()
	d = nil // the stopped daemon is garbage from here on
	d2, err := wfd.New(cfg)
	r.recover = time.Since(a)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	defer d2.Shutdown()
	r.restart = r.shutdown + r.recover
	if tr != nil {
		fol = startFollower(d2, jobs, tr, rid)
	}
	for _, active := done(d2); active > 0; _, active = done(d2) {
		time.Sleep(statusPoll)
	}
	r.timed = time.Since(t0)
	for _, j := range jobs {
		if err := d2.WaitJob(context.Background(), j.id); err != nil {
			return nil, fmt.Errorf("wait %s: %w", j.id, err)
		}
	}
	r.obs = total
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.gcs = m1.NumGC - m0.NumGC
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.heapMB = float64(m1.HeapAlloc) / (1 << 20)
	r.replayUS = append(replay, fol.halt()...)
	fol = nil

	after := d2.Status()
	r.failed += after.Failed + after.Canceled
	r.quanta = float64(before.Quanta + after.Quanta)
	r.served = float64(before.ServedTotal + after.ServedTotal)
	r.builds = float64(before.UniqueBuilds + after.UniqueBuilds)
	r.dupBuilds = float64(before.DupBuilds + after.DupBuilds)
	r.recovered = float64(after.Recovered)
	r.resumed = float64(after.Resumed)
	r.entriesAfter = float64(after.CorpusEntries)
	for _, js := range d2.Jobs() {
		r.events += float64(js.Events)
	}

	reports := make([][]byte, len(jobs))
	for i, j := range jobs {
		id := tr.begin("report_fetch", rid, j.key)
		a := time.Now()
		rep, err := d2.ReportJSON(j.id)
		r.fetchUS = append(r.fetchUS, us(time.Since(a)))
		tr.end(id)
		if err != nil {
			r.problems = append(r.problems, fmt.Sprintf("report %s: %v", j.id, err))
			continue
		}
		reports[i] = rep
	}
	r.check(jobs, reports, doneBefore, interrupted)
	return r, nil
}

// check applies the serve correctness rules: every copy of a spec, across
// tenants and across the restart, yields the same report bytes; at least
// one job interrupted mid-flight has an uninterrupted twin; warm-started
// specs really drew seeds from the corpus. It sets the round digest: the
// specs' report hashes folded in spec order.
func (r *serveRound) check(jobs []serveJob, reports [][]byte, doneBefore map[string]bool, interrupted []serveJob) {
	first := make([][]byte, serveSpecCount)
	for i, j := range jobs {
		rep := reports[i]
		if rep == nil {
			continue
		}
		switch {
		case first[j.spec] == nil:
			first[j.spec] = rep
		case !bytes.Equal(first[j.spec], rep):
			r.problems = append(r.problems, fmt.Sprintf("job %s: report differs from another tenant's copy of spec %d", j.id, j.spec))
		}
	}
	uninterrupted := map[int]bool{}
	for _, j := range jobs {
		if doneBefore[j.id] {
			uninterrupted[j.spec] = true
		}
	}
	for _, j := range interrupted {
		if uninterrupted[j.spec] {
			r.interruptedChecked++
		}
	}
	if r.interruptedChecked == 0 {
		r.problems = append(r.problems, "no job interrupted by the restart has an uninterrupted copy to compare with")
	}
	sums := make([]string, serveSpecCount)
	for i, rep := range first {
		if rep == nil {
			r.problems = append(r.problems, fmt.Sprintf("spec %d: no report", i))
			continue
		}
		var head struct {
			CorpusSeeds int `json:"corpus_seeds"`
		}
		if err := json.Unmarshal(rep, &head); err != nil {
			r.problems = append(r.problems, fmt.Sprintf("spec %d: report: %v", i, err))
		}
		if warmSpec(i) && head.CorpusSeeds == 0 {
			r.problems = append(r.problems, fmt.Sprintf("spec %d: warm start drew no corpus seeds", i))
		}
		sum := sha256.Sum256(rep)
		sums[i] = hex.EncodeToString(sum[:])
	}
	r.digest = foldDigests(sums)
}

// readJournal measures the state dir the shutdown left behind.
func (r *serveRound) readJournal(dir string) error {
	return filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		r.journalFiles++
		r.journalBytes += float64(info.Size())
		return nil
	})
}

// servePass runs rounds until `seconds` have passed. The first round warms
// the process up (page faults, first-use initialization): it is checked
// like every other but its timings are not reported, so a pass runs at
// least two rounds.
type servePass struct {
	rounds []*serveRound
	setups []float64 // s per set-up, one per batch
}

// sampleSetup times one batch of set-ups and returns the directories of
// the last; the others are removed after the clock stops.
func (p *servePass) sampleSetup(work string, seed uint64) (serveDirs, error) {
	var made []serveDirs
	runtime.GC() // every batch starts from the same heap, whatever ran before
	a := time.Now()
	for len(made) == 0 || time.Since(a) < setupBatch {
		d, err := serveSetup(work, seed)
		made = append(made, d)
		if err != nil {
			for _, d := range made {
				os.RemoveAll(d.root)
			}
			return d, fmt.Errorf("set-up: %w", err)
		}
	}
	p.setups = append(p.setups, time.Since(a).Seconds()/float64(len(made)))
	for _, d := range made[:len(made)-1] {
		os.RemoveAll(d.root)
	}
	return made[len(made)-1], nil
}

func runServePass(work string, seed uint64, seconds time.Duration, tr *tracer) (*servePass, error) {
	p := &servePass{}
	specs := serveSpecs(seed)
	root := tr.begin("workload", 0, "")
	defer tr.end(root)
	start := time.Now()
	for len(p.rounds) < 2 || time.Since(start) < seconds {
		d, err := p.sampleSetup(work, seed)
		for i := 1; err == nil && i < setupsPerRound; i++ {
			os.RemoveAll(d.root)
			d, err = p.sampleSetup(work, seed)
		}
		if err != nil {
			return nil, err
		}
		r, err := runServeRound(d, specs, tr, root)
		os.RemoveAll(d.root)
		if err != nil {
			return nil, err
		}
		if n := len(p.rounds); n > 0 && r.digest != p.rounds[0].digest {
			r.problems = append(r.problems, fmt.Sprintf("round %d digest differs from round 1", n+1))
		}
		p.rounds = append(p.rounds, r)
	}
	for len(p.setups) < setupReps {
		d, err := p.sampleSetup(work, seed)
		os.RemoveAll(d.root)
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// measured returns the rounds whose timings count.
func (p *servePass) measured() []*serveRound { return p.rounds[1:] }

// totals sums the observations and time of the measured rounds and the
// jobs, failures and problems of all of them.
func (p *servePass) totals() (obs int, timed time.Duration, jobs, failed int, problems []string) {
	for _, r := range p.measured() {
		obs += r.obs
		timed += r.timed
	}
	for _, r := range p.rounds {
		jobs += r.jobs
		failed += r.failed
		problems = append(problems, r.problems...)
	}
	return
}

func (p *servePass) collect(f func(*serveRound) []float64) []float64 {
	var xs []float64
	for _, r := range p.measured() {
		xs = append(xs, f(r)...)
	}
	return xs
}

func (p *servePass) sum(f func(*serveRound) float64) float64 {
	var s float64
	for _, r := range p.measured() {
		s += f(r)
	}
	return s
}

// runServe is the serve workload.
func runServe(work string, seed uint64, seconds time.Duration, trace bool) (*outcome, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	a, err := runServePass(work, seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	obs, timed, jobs, failed, problems := a.totals()
	out := &outcome{
		attempted: jobs,
		failed:    failed,
		problems:  problems,
		digest:    a.rounds[0].digest,
		base:      fmt.Sprintf("%d rounds × %d jobs, the first a warm-up", len(a.rounds), jobs/len(a.rounds)),
	}
	for i, r := range a.rounds {
		out.notes = append(out.notes, fmt.Sprintf("round %d: %.1f obs/s, restart %.3f s, %d interrupted jobs matched an uninterrupted copy",
			i+1, float64(r.obs)/r.timed.Seconds(), r.restart.Seconds(), r.interruptedChecked))
	}
	turns := a.collect(func(r *serveRound) []float64 { return r.turnMS })
	if !stat.TailOK(len(turns), 0.90) {
		out.problems = append(out.problems, fmt.Sprintf("only %d jobs: p90 needs %d beyond it", len(turns), stat.MinTail))
		return out, nil
	}
	submits := a.collect(func(r *serveRound) []float64 { return r.submitMS })
	out.notes = append(out.notes, fmt.Sprintf("submit_p50_ms %.4g, submit_p90_ms %.4g (n=%d Submit)",
		stat.Percentile(submits, 0.5), stat.Percentile(submits, 0.9), len(submits)))
	restarts := a.collect(func(r *serveRound) []float64 { return []float64{r.restart.Seconds()} })
	heaps := a.collect(func(r *serveRound) []float64 { return []float64{r.heapMB} })
	obsPerS := float64(obs) / timed.Seconds()
	out.e2e = []e2eValue{
		{"obs_per_s", "", obsPerS, fmt.Sprintf("%d obs in %.3f s", obs, timed.Seconds())},
		{"lat_p50_ms", "job_p50_ms", stat.Percentile(turns, 0.5), fmt.Sprintf("n=%d jobs, Submit → done", len(turns))},
		{"lat_tail_ms", "job_p90_ms", stat.Percentile(turns, 0.90), fmt.Sprintf("n=%d, %d beyond", len(turns), stat.Beyond(len(turns), 0.90))},
		{"restart_s", "", stat.Median(restarts), fmt.Sprintf("Shutdown+New, median of %d", len(restarts))},
		{"heap_live_mb", "", stat.Median(heaps), fmt.Sprintf("median of %d post-GC samples", len(heaps))},
		{"setup_s", "", stat.Median(a.setups), fmt.Sprintf("seeded corpus, median of %d batches of >= %v", len(a.setups), setupBatch)},
	}
	if !trace {
		return out, nil
	}

	tr := newTracer()
	b, err := runServePass(work, seed, seconds, tr)
	if err != nil {
		return nil, err
	}
	out.tr = tr
	obsB, timedB, jobsB, failedB, problemsB := b.totals()
	out.attempted += jobsB
	out.failed += failedB
	out.problems = append(out.problems, problemsB...)
	if d := b.rounds[0].digest; d != out.digest {
		out.problems = append(out.problems, fmt.Sprintf("traced digest %s differs from untraced %s", d, out.digest))
	}
	l := out.layers()
	n := float64(len(a.measured()))
	med := func(f func(*serveRound) []float64) float64 { return stat.Median(a.collect(f)) }
	l["wfd.submit.p50_ms"] = stat.Percentile(submits, 0.5)
	l["wfd.submit.p90_ms"] = stat.Percentile(submits, 0.9)
	l["wfd.submit.cold_us"] = med(func(r *serveRound) []float64 { return r.coldUS })
	l["wfd.submit.warm_us"] = med(func(r *serveRound) []float64 { return r.warmUS })
	l["wfd.quanta"] = a.sum(func(r *serveRound) float64 { return r.quanta }) / n
	l["wfd.served"] = a.sum(func(r *serveRound) float64 { return r.served }) / n
	l["wfd.builds.unique"] = a.sum(func(r *serveRound) float64 { return r.builds }) / n
	l["wfd.builds.dup"] = a.sum(func(r *serveRound) float64 { return r.dupBuilds }) / n
	l["wfd.shutdown.ms"] = med(func(r *serveRound) []float64 { return []float64{ms(r.shutdown)} })
	l["wfd.journal.bytes"] = a.sum(func(r *serveRound) float64 { return r.journalBytes }) / n
	l["wfd.journal.files"] = a.sum(func(r *serveRound) float64 { return r.journalFiles }) / n
	l["wfd.recover.ms"] = med(func(r *serveRound) []float64 { return []float64{ms(r.recover)} })
	l["wfd.recovered"] = a.sum(func(r *serveRound) float64 { return r.recovered }) / n
	l["wfd.resumed"] = a.sum(func(r *serveRound) float64 { return r.resumed }) / n
	l["wfd.attach.replay_us"] = stat.Median(b.collect(func(r *serveRound) []float64 { return r.replayUS }))
	l["wfd.events.per_obs"] = a.sum(func(r *serveRound) float64 { return r.events }) / float64(obs)
	l["wfd.report_fetch.us"] = med(func(r *serveRound) []float64 { return r.fetchUS })
	l["corpus.open_ms"] = med(func(r *serveRound) []float64 { return []float64{ms(r.corpusOpen)} })
	l["corpus.entries.before"] = a.rounds[0].entriesBefore
	l["corpus.entries.after"] = a.rounds[0].entriesAfter
	l["go.alloc_bytes_per_obs"] = a.sum(func(r *serveRound) float64 { return float64(r.allocBytes) }) / float64(obs)
	l["go.mallocs_per_obs"] = a.sum(func(r *serveRound) float64 { return float64(r.mallocs) }) / float64(obs)
	gcs := a.sum(func(r *serveRound) float64 { return float64(r.gcs) })
	gcPause := a.sum(func(r *serveRound) float64 { return ms(r.gcPause) })
	out.notes = append(out.notes, fmt.Sprintf("go: %.0f GC cycles, %.3f ms GC pause over %d obs", gcs, gcPause, obs))
	l["go.gc_cycles_per_kobs"] = 1000 * gcs / float64(obs)
	l["go.gc_pause_us_per_obs"] = 1000 * gcPause / float64(obs)
	l["trace.obs_per_s_untraced"] = obsPerS
	l["trace.obs_per_s_traced"] = float64(obsB) / timedB.Seconds()
	l["trace.overhead_pct"] = 100 * (obsPerS - l["trace.obs_per_s_traced"]) / obsPerS
	return out, nil
}
