// Command perfbench is Wayfinder's standing benchmark. It drives the
// system only through its public calls — wayfinder.New/Resume,
// Session.Step/Snapshot/Report, the wfd daemon's Submit/Hold/Release/
// WaitJob/ReportJSON/Attach/Status/Shutdown, wfd.CanonicalReportJSON and
// corpus.Open — and times those calls from outside.
//
//	perfbench --workload tune-bayesian|tune-deeptune|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// an untraced and a traced pass and prints the per-layer metrics, the
// self time per span name and the tracing overhead, and writes the spans
// under --trace-dir. Every run folds the canonical reports of its sessions
// or jobs into one digest and checks it (traced against untraced, and
// against digests.json for the seeds pinned there). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": x, "unit": "u"}}}
//
// The exit code is 0 only when every check passed. See README.md.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"wayfinder/perfbench/stat"
)

// e2eMetrics are the end-to-end metrics every workload reports with
// tracing off, in BENCHMARK.json order.
var e2eMetrics = []struct{ name, unit string }{
	{"obs_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"restart_s", "s"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

// layerMetrics are the per-layer metrics of a traced run, in
// BENCHMARK.json order. A workload that does not reach a layer reports 0
// for it.
var layerMetrics = []struct{ name, unit string }{
	{"search.decision.us_per_obs", "us"},
	{"search.propose.p50_us", "us"},
	{"search.propose.busy_us_per_obs", "us"},
	{"search.propose.bytes_per_op", "B"},
	{"search.propose.allocs_per_op", "count"},
	{"search.observe.p50_us", "us"},
	{"search.observe.busy_us_per_obs", "us"},
	{"search.observe.bytes_per_op", "B"},
	{"search.observe.allocs_per_op", "count"},
	{"core.step.self_us_per_obs", "us"},
	{"core.snapshot.ms", "ms"},
	{"core.snapshot.bytes_per_obs", "B"},
	{"core.resume.ms", "ms"},
	{"core.events.per_obs", "count"},
	{"wfd.report_encode.ms", "ms"},
	{"wfd.report_encode.bytes_per_obs", "B"},
	{"wfd.submit.p50_ms", "ms"},
	{"wfd.submit.p90_ms", "ms"},
	{"wfd.submit.cold_us", "us"},
	{"wfd.submit.warm_us", "us"},
	{"wfd.quanta", "count"},
	{"wfd.served", "count"},
	{"wfd.builds.unique", "count"},
	{"wfd.builds.dup", "count"},
	{"wfd.shutdown.ms", "ms"},
	{"wfd.journal.bytes", "B"},
	{"wfd.journal.files", "count"},
	{"wfd.recover.ms", "ms"},
	{"wfd.recovered", "count"},
	{"wfd.resumed", "count"},
	{"wfd.attach.replay_us", "us"},
	{"wfd.events.per_obs", "count"},
	{"wfd.report_fetch.us", "us"},
	{"corpus.open_ms", "ms"},
	{"corpus.entries.before", "count"},
	{"corpus.entries.after", "count"},
	{"go.alloc_bytes_per_obs", "B"},
	{"go.mallocs_per_obs", "count"},
	{"go.gc_cycles_per_kobs", "count"},
	{"go.gc_pause_us_per_obs", "us"},
	{"trace.obs_per_s_untraced", "1/s"},
	{"trace.obs_per_s_traced", "1/s"},
	{"trace.overhead_pct", "%"},
	{"fail_ratio", "ratio"},
}

// digests.json pins the workload digests of known seeds: a run on a
// pinned seed whose outputs differ fails instead of reading as a speed-up.
//
//go:embed digests.json
var pinnedJSON []byte

// e2eValue is one end-to-end reading. alias is the name the workload's doc
// gives the same reading (step_p50_ms for lat_p50_ms on tune-*), and note
// its sample base.
type e2eValue struct {
	name, alias string
	value       float64
	note        string
}

// outcome is a workload's result before printing.
type outcome struct {
	attempted, failed int
	problems          []string
	notes             []string
	digest            string
	base              string // what attempted counts
	e2e               []e2eValue
	layer             map[string]float64
	tr                *tracer
}

// layers returns the per-layer map, creating it.
func (o *outcome) layers() map[string]float64 {
	if o.layer == nil {
		o.layer = map[string]float64{}
	}
	return o.layer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "tune-bayesian, tune-deeptune or serve")
	seed := fl.Uint64("seed", 1, "workload seed; the inputs are a function of it")
	seconds := fl.Int("seconds", 30, "how long one pass measures (BENCHMARK.json run_seconds)")
	trace := fl.Int("trace", 0, "1 = add a traced pass and report per-layer metrics")
	traceDir := fl.String("trace-dir", ".bench_build/trace", "where a traced run writes its spans")
	work := fl.String("work", ".bench_build/work", "scratch directory for the serve workload's state")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dur := time.Duration(*seconds) * time.Second
	var out *outcome
	var err error
	spec, isTune := tuneSpecs[*workload]
	switch {
	case *workload == "serve":
		out, err = runServe(*work, *seed, dur, *trace == 1)
	case isTune:
		out, err = runTune(spec, *seed, dur, *trace == 1)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (tune-bayesian, tune-deeptune, serve)\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if want, ok, err := pinned(*workload, *seed); err != nil {
		out.problems = append(out.problems, err.Error())
	} else if ok && want != out.digest {
		out.problems = append(out.problems, fmt.Sprintf("digest %s differs from the pinned %s", out.digest, want))
	}
	if *trace == 1 && out.tr != nil {
		path, err := out.tr.write(*traceDir, fmt.Sprintf("%s-seed%d.spans.json", *workload, *seed))
		if err != nil {
			out.problems = append(out.problems, fmt.Sprintf("writing spans: %v", err))
		} else {
			out.notes = append(out.notes, "spans written to "+path)
		}
	}
	res := report(stdout, *workload, *seed, *trace == 1, out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the human-readable lines and builds the result object.
func report(w io.Writer, workload string, seed uint64, traced bool, out *outcome) result {
	fr := stat.Ratio{Count: out.failed, Base: out.attempted}
	fmt.Fprintf(w, "# workload=%s seed=%d digest=%s\n", workload, seed, out.digest)
	fmt.Fprintf(w, "fail_ratio %s %s\n", fr, out.base)
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	units := map[string]string{}
	for _, m := range e2eMetrics {
		units[m.name] = m.unit
	}
	for _, v := range out.e2e {
		name := v.name
		if v.alias != "" {
			name += "/" + v.alias
		}
		fmt.Fprintf(w, "%-28s %14.6g %-5s %s\n", name, v.value, units[v.name], v.note)
		if !traced {
			res.Metrics[v.name] = metric{v.value, units[v.name]}
		}
	}
	if traced {
		if v, err := fr.Value(); err == nil {
			out.layers()["fail_ratio"] = v
		}
		for _, m := range layerMetrics {
			v := out.layers()[m.name]
			fmt.Fprintf(w, "%-34s %14.6g %s\n", m.name, v, m.unit)
			res.Metrics[m.name] = metric{v, m.unit}
		}
		if out.tr != nil {
			printSelfTimes(w, selfTimes(out.tr.spans))
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.problems = append(out.problems, name+" is not a number")
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	want := len(e2eMetrics)
	if traced {
		want = len(layerMetrics)
	}
	res.Correct = len(out.problems) == 0 && out.failed == 0 && len(res.Metrics) == want
	return res
}

// pinned returns the digest pinned for (workload, seed), if any.
func pinned(workload string, seed uint64) (string, bool, error) {
	var pins map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return "", false, fmt.Errorf("digests.json: %w", err)
	}
	d, ok := pins[workload][strconv.FormatUint(seed, 10)]
	return d, ok, nil
}

// sessionSeed derives the seed of input i from the workload seed
// (splitmix64), kept below 2^31 so it reads well in reports.
func sessionSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) & 0x7fffffff
}

// foldDigests hashes an ordered list of report digests into one.
func foldDigests(sums []string) string {
	h := sha256.New()
	h.Write([]byte(strings.Join(sums, "\n")))
	return hex.EncodeToString(h.Sum(nil))
}
