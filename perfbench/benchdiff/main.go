// Command benchdiff compares two sets of perfbench results.
//
//	go run ./benchdiff [-bench ../BENCHMARK.json] BASE [HEAD]
//
// A result set is a directory holding one subdirectory per workload, each
// with one file per run: the run's final JSON line, or its whole standard
// output (the last line starting with '{' is taken). Runs pair by file
// name, so name them by seed (record.sh does).
//
// With one set it prints, per workload and metric, the median, quartiles
// and spread (interquartile distance over the median) and marks every
// end-to-end spread that is not below a third of its bound. With two it
// prints both sides' medians and quartiles, the pairs HEAD won, and a
// verdict per metric:
//
//	REGRESSION  HEAD's median is worse than BASE's by more than the bound
//	unresolved  BASE's own spread is wider than the bound, and HEAD does
//	            not beat every BASE run with every run of its own
//	gain        HEAD won at least 9 in 10 pairs and the medians differ by
//	            more than BASE's interquartile distance
//	same        none of the above
//
// Per-layer metrics have no bound and get only gain or same, or worse by
// the mirrored rule. A metric with one run a side gets its two readings
// and no verdict. For each workload it names the per-layer time metric
// whose median moved most. The exit code is 1 when a run is incorrect or a
// metric regressed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"wayfinder/perfbench/stat"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	e2e    bool
}

type run struct {
	Correct bool               `json:"correct"`
	Metrics map[string]reading `json:"metrics"`
}

type reading struct {
	Value float64 `json:"value"`
}

// set is one result set: workload → run name → run.
type set map[string]map[string]run

func main() {
	bench := flag.String("bench", "../BENCHMARK.json", "the benchmark's BENCHMARK.json")
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-bench BENCHMARK.json] BASE [HEAD]")
		os.Exit(2)
	}
	defs, err := loadDefs(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	var sets []set
	for _, dir := range flag.Args() {
		s, err := loadSet(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		sets = append(sets, s)
	}
	var bad bool
	if len(sets) == 1 {
		bad = summarize(os.Stdout, defs, sets[0])
	} else {
		bad = compare(os.Stdout, defs, sets[0], sets[1])
	}
	if bad {
		os.Exit(1)
	}
}

func loadDefs(path string) ([]metricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range b.EndToEnd {
		b.EndToEnd[i].e2e = true
	}
	return append(b.EndToEnd, b.PerLayer...), nil
}

func loadSet(dir string) (set, error) {
	s := set{}
	wls, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, wl := range wls {
		if !wl.IsDir() {
			continue
		}
		files, err := filepath.Glob(filepath.Join(dir, wl.Name(), "*.json"))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			r, err := readRun(f)
			if err != nil {
				return nil, err
			}
			if s[wl.Name()] == nil {
				s[wl.Name()] = map[string]run{}
			}
			s[wl.Name()][filepath.Base(f)] = r
		}
	}
	return s, nil
}

// readRun parses the last JSON line of a run's output.
func readRun(path string) (run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return run{}, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 && line[0] == '{' {
			last = append(last[:0], line...)
		}
	}
	if err := sc.Err(); err != nil {
		return run{}, fmt.Errorf("%s: %w", path, err)
	}
	var r run
	if err := json.Unmarshal(last, &r); err != nil {
		return run{}, fmt.Errorf("%s: no result line: %w", path, err)
	}
	return r, nil
}

// values returns a metric's readings in run-name order, with the names.
func values(runs map[string]run, name string) (names []string, xs []float64) {
	for _, n := range sortedKeys(runs) {
		if m, ok := runs[n].Metrics[name]; ok {
			names = append(names, n)
			xs = append(xs, m.Value)
		}
	}
	return names, xs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// checkCorrect prints and reports runs whose checks failed.
func checkCorrect(w io.Writer, label string, runs map[string]run) bool {
	bad := false
	for _, n := range sortedKeys(runs) {
		if !runs[n].Correct {
			fmt.Fprintf(w, "  INCORRECT %s run %s\n", label, n)
			bad = true
		}
	}
	return bad
}

func summarize(w io.Writer, defs []metricDef, s set) bool {
	bad := false
	for _, wl := range sortedKeys(s) {
		runs := s[wl]
		fmt.Fprintf(w, "%s (%d runs)\n", wl, len(runs))
		bad = checkCorrect(w, "", runs) || bad
		fmt.Fprintf(w, "  %-34s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
		for _, d := range defs {
			_, xs := values(runs, d.Name)
			if len(xs) < 2 {
				continue
			}
			q1, q2, q3, _ := stat.Quartiles(xs)
			spread, err := stat.Spread(xs)
			mark := ""
			switch {
			case err != nil:
				mark = "  (median 0)"
			case d.e2e && spread >= d.Bound/3:
				mark = fmt.Sprintf("  not below bound/3 = %.3f", d.Bound/3)
			}
			fmt.Fprintf(w, "  %-34s %12.5g %12.5g %12.5g %8.3f%s\n", d.Name, q1, q2, q3, spread, mark)
		}
	}
	return bad
}

func compare(w io.Writer, defs []metricDef, base, head set) bool {
	bad := false
	for _, wl := range sortedKeys(base) {
		hr, ok := head[wl]
		if !ok {
			continue
		}
		br := base[wl]
		fmt.Fprintf(w, "%s (base %d runs, head %d runs)\n", wl, len(br), len(hr))
		bad = checkCorrect(w, "base", br) || bad
		bad = checkCorrect(w, "head", hr) || bad
		fmt.Fprintf(w, "  %-34s %-28s %-28s %7s  %s\n", "metric", "base q1/median/q3", "head q1/median/q3", "won", "verdict")
		var moved string
		var movedBy float64
		for _, d := range defs {
			bn, bx := values(br, d.Name)
			hn, hx := values(hr, d.Name)
			if len(bx) == 0 || len(hx) == 0 {
				continue
			}
			bq2, hq2 := stat.Median(bx), stat.Median(hx)
			if len(bx) < 2 || len(hx) < 2 {
				// One run a side, as record.sh's traced sets hold: the
				// readings alone, with no verdict.
				fmt.Fprintf(w, "  %-34s %-28.4g %-28.4g %7s  one run\n", d.Name, bq2, hq2, "")
			} else {
				bq1, _, bq3, _ := stat.Quartiles(bx)
				hq1, _, hq3, _ := stat.Quartiles(hx)
				pb, ph := pairs(bn, bx, hn, hx)
				won, lost, n := stat.Wins(pb, ph, d.Better == "higher")
				v := verdict(d, bx, hx, won, lost, n)
				if v == "REGRESSION" {
					bad = true
				}
				fmt.Fprintf(w, "  %-34s %-28s %-28s %3d/%-3d  %s\n", d.Name,
					fmt.Sprintf("%.4g/%.4g/%.4g", bq1, bq2, bq3),
					fmt.Sprintf("%.4g/%.4g/%.4g", hq1, hq2, hq3), won, n, v)
			}
			if !d.e2e && isTime(d.Unit) && bq2 != 0 {
				if rel := math.Abs(hq2-bq2) / math.Abs(bq2); rel > movedBy {
					moved, movedBy = d.Name, rel
				}
			}
		}
		if moved != "" {
			fmt.Fprintf(w, "  busy time moved most: %s (%.1f%% of its base median)\n", moved, 100*movedBy)
		}
	}
	return bad
}

// pairs aligns two runs' readings by run name.
func pairs(bn []string, bx []float64, hn []string, hx []float64) (pb, ph []float64) {
	for i, n := range bn {
		if j := slices.Index(hn, n); j >= 0 {
			pb = append(pb, bx[i])
			ph = append(ph, hx[j])
		}
	}
	return pb, ph
}

// verdict applies the comparison rules of the package doc.
func verdict(d metricDef, bx, hx []float64, won, lost, n int) string {
	bq1, bq2, bq3, _ := stat.Quartiles(bx)
	_, hq2, _, _ := stat.Quartiles(hx)
	worse := hq2 - bq2 // positive when HEAD is worse
	if d.Better == "higher" {
		worse = -worse
	}
	beyondNoise := math.Abs(hq2-bq2) > bq3-bq1
	gain := n > 0 && float64(won) >= 0.9*float64(n) && beyondNoise && worse < 0
	if !d.e2e {
		switch {
		case gain:
			return "gain"
		case n > 0 && float64(lost) >= 0.9*float64(n) && beyondNoise && worse > 0:
			return "worse"
		}
		return "same"
	}
	if bq2 != 0 && (bq3-bq1)/math.Abs(bq2) > d.Bound && !dominates(d, bx, hx) {
		return "unresolved"
	}
	if bq2 != 0 && worse/math.Abs(bq2) > d.Bound {
		return "REGRESSION"
	}
	if gain {
		return "gain"
	}
	return "same"
}

// dominates reports whether every HEAD run is better than every BASE run.
func dominates(d metricDef, bx, hx []float64) bool {
	if d.Better == "higher" {
		return slices.Min(hx) > slices.Max(bx)
	}
	return slices.Max(hx) < slices.Min(bx)
}

func isTime(unit string) bool {
	switch strings.ToLower(unit) {
	case "s", "ms", "us", "ns":
		return true
	}
	return false
}
