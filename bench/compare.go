package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one metric on one workload, by the rule BENCHMARK.json's
// bounds stand for: the second file's median may not be worse than the
// first's by more than the bound. Where either side's own run-to-run
// spread (quartile distance over median) is wider than the bound the pair
// is unresolved, unless every run of one side beats every run of the other.
type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

func judge(m specMetric, a, b []float64) (v verdict, worse float64) {
	ma, mb := quantile(a, 0.5), quantile(b, 0.5)
	worse = (mb - ma) / ma // share of the first median by which the second is worse
	if m.Better == "higher" {
		worse = -worse
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		lowA, highA := quantile(a, 0), quantile(a, 1)
		lowB, highB := quantile(b, 0), quantile(b, 1)
		bWorse, bBetter := lowB > highA, highB < lowA
		if m.Better == "higher" {
			bWorse, bBetter = bBetter, bWorse
		}
		switch {
		case bWorse && worse > m.Bound:
			return regressed, worse
		case bBetter:
			return ok, worse
		}
		return unresolved, worse
	}
	if worse > m.Bound {
		return regressed, worse
	}
	return ok, worse
}

// spread is the distance between the quartiles as a share of the median;
// zero for fewer than four runs, where quartiles say nothing.
func spread(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / quantile(v, 0.5)
}

func cmdCompare(sp *spec, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json")
		return 2
	}
	var files [2]resultsFile
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	status := 0
	fmt.Fprintf(stdout, "%-16s %-14s %5s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "runs", "median A", "median B", "iqr A", "iqr B", "worse", "verdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			a, b := values(files[0], w.Name, m.Name), values(files[1], w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, worse := judge(m, a, b)
			if v == regressed {
				status = 1
			}
			fmt.Fprintf(stdout, "%-16s %-14s %2d/%-2d %14.4f %14.4f %7.2f%% %7.2f%% %+6.2f%%  %s (bound %g%%)\n",
				w.Name, m.Name, len(a), len(b), quantile(a, 0.5), quantile(b, 0.5), 100*spread(a), 100*spread(b), 100*worse, v, 100*m.Bound)
		}
		for i, f := range files {
			for _, r := range f.Runs {
				if r.Workload == w.Name && (!r.Correct || r.Failed > 0) {
					fmt.Fprintf(stdout, "%-16s file %c seed %d: correct=%v, %d of %d operations failed\n", w.Name, 'A'+i, r.Seed, r.Correct, r.Failed, r.Attempted)
					status = 1
				}
			}
		}
	}
	return status
}

// values collects one end-to-end metric of one workload over a file's
// untraced runs.
func values(f resultsFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}
