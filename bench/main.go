// Command bench is the benchmark of this repository: seven seeded
// workloads, end-to-end metrics with regression bounds, and a separate
// traced pass that produces per-layer numbers by timing calls into each
// module's public API and by ablation through existing public options.
// BENCHMARK.json at the repository root declares the names; README.md in
// this directory explains them.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//	bench run [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out FILE] [-spans PREFIX]
//	bench compare A.json B.json
//
// The first form runs one workload in this process and prints, as the last
// line of standard output, one JSON object with the run's result. run
// starts one child process per workload; compare reads two files written
// by run -out and exits non-zero if a metric regressed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return cmdRun(sp, args[1:], stdout, stderr)
		case "compare":
			return cmdCompare(sp, args[1:], stdout, stderr)
		}
	}
	return cmdWorkload(sp, args, stdout, stderr)
}

// runFlags are the flags the single-workload form and run share.
type runFlags struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	spans    string
}

func (f *runFlags) register(fs *flag.FlagSet, sp *spec) {
	fs.StringVar(&f.workload, "workload", "", "workload to run")
	fs.Uint64Var(&f.seed, "seed", 1, "seed every input is derived from")
	fs.Float64Var(&f.seconds, "seconds", float64(sp.RunSeconds), "how long to measure")
	fs.IntVar(&f.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and per-layer metrics")
	fs.StringVar(&f.spans, "spans", "", "with -trace 1, write the spans to this file")
}

// result is the last line of a single-workload run, and one entry of the
// file run -out writes.
type result struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      uint64                 `json:"seed,omitempty"`
	Trace     int                    `json:"trace,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func cmdWorkload(sp *spec, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f runFlags
	f.register(fs, sp)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(f.workload)
	if !ok || !sp.hasWorkload(f.workload) || fs.NArg() > 0 || f.seconds <= 0 {
		fmt.Fprintf(stderr, "bench: need -workload, one of BENCHMARK.json's, and -seconds > 0 (got %q)\n", f.workload)
		return 2
	}
	var out *outcome
	var err error
	if f.trace == 1 {
		out, err = runTraced(w, f.seed, f.seconds, 1)
	} else {
		out, err = runUntraced(w, f.seed, f.seconds, 1)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	report(stdout, sp, w.name, f.trace == 1, out)
	if out.checkErr != nil {
		fmt.Fprintln(stderr, "bench: check failed:", out.checkErr)
	}
	if out.spans != nil && f.spans != "" {
		if err := out.spans.writeFile(f.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	res := result{Correct: out.checkErr == nil, Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metricValue)}
	for _, m := range sp.metrics(f.trace == 1) {
		res.Metrics[m.Name] = metricValue{out.metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil { // a NaN: a metric that could not be computed
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if out.checkErr != nil || len(out.rounds) == 0 {
		return 1
	}
	return 0
}

// report prints what the run measured for a reader: the rounds cell by
// cell, then every declared metric with its unit and bound.
func report(w io.Writer, sp *spec, workload string, trace bool, out *outcome) {
	if len(out.rounds) > 0 {
		cells := out.rounds[0].cells
		fmt.Fprintf(w, "%s: %d rounds of %d cells; medians per cell:\n", workload, len(out.rounds), len(cells))
		for i, c := range cells {
			wall, mallocs, _ := out.cellMedian(i)
			fmt.Fprintf(w, "  %-32s %9d ops %11d steps %10.3f ms %12.1f ops/s %10.0f allocs\n", c.name, c.ops, c.steps,
				wall.Seconds()*1e3, float64(c.ops)/wall.Seconds(), mallocs)
		}
		fmt.Fprintf(w, "round wall ms:")
		for i := range out.rounds {
			fmt.Fprintf(w, " %.1f", out.rounds[i].wall().Seconds()*1e3)
		}
		fmt.Fprintln(w)
	}
	speed := out.cal.speed()
	fmt.Fprintf(w, "machine speed %.4f of reference (%d calibration samples)", speed, len(out.cal.samples))
	if !trace {
		fmt.Fprintf(w, "; raw, as timed here: setup_s %.4f  ops_per_s %.4f  ns_per_step %.4f",
			out.metrics["setup_s"]/speed, out.metrics["ops_per_s"]*speed, out.metrics["ns_per_step"]/speed)
	}
	fmt.Fprintln(w)
	if out.spans != nil {
		self, n := out.spans.selfTimes(), out.spans.counts()
		fmt.Fprintln(w, "span self time (span minus its children):")
		for _, name := range sortedKeys(self) {
			fmt.Fprintf(w, "  %-32s %7d spans %12.3f ms\n", name, n[name], self[name].Seconds()*1e3)
		}
	}
	for _, m := range sp.metrics(trace) {
		bound := ""
		if !trace {
			bound = fmt.Sprintf("  (%s is better, bound %g%%)", m.Better, m.Bound*100)
		}
		fmt.Fprintf(w, "%-36s %16.4f %-8s%s\n", m.Name, out.metrics[m.Name], m.Unit, bound)
	}
}

// resultsFile is what run -out writes and compare reads. Running again
// with the same -out appends, so a file can hold many runs per workload.
type resultsFile struct {
	Runs []result `json:"runs"`
}

func cmdRun(sp *spec, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f runFlags
	f.register(fs, sp)
	outPath := fs.String("out", "", "append the results to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var file resultsFile
	if *outPath != "" {
		if data, err := os.ReadFile(*outPath); err == nil {
			if err := json.Unmarshal(data, &file); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", *outPath, err)
				return 1
			}
		}
	}
	status := 0
	for _, w := range sp.Workloads {
		if f.workload != "" && f.workload != w.Name {
			continue
		}
		childArgs := []string{"-workload", w.Name, "-seed", fmt.Sprint(f.seed), "-seconds", fmt.Sprint(f.seconds), "-trace", fmt.Sprint(f.trace)}
		if f.spans != "" {
			childArgs = append(childArgs, "-spans", f.spans+w.Name+".json")
		}
		res, err := runChild(self, childArgs, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			status = 1
			continue
		}
		res.Workload, res.Seed, res.Trace = w.Name, f.seed, f.trace
		file.Runs = append(file.Runs, *res)
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*outPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload in a process of its own, so that set-up time,
// allocation counts and peak memory are that workload's alone, passes its
// report through, and parses the result from its last line.
func runChild(self string, args []string, stdout, stderr io.Writer) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
	}
	waitErr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || !strings.HasPrefix(last, "{") {
		if waitErr != nil {
			return nil, waitErr
		}
		return nil, fmt.Errorf("no result line")
	}
	if waitErr != nil {
		return &res, fmt.Errorf("failed (correct=%v): %w", res.Correct, waitErr)
	}
	return &res, nil
}
