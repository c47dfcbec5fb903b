// Command psharp-bench regenerates the paper's two evaluation tables.
//
// Usage:
//
//	psharp-bench -table 1 [-check] [-json table1.json]
//	psharp-bench -table 2 [-iterations 10000] [-timeout 5m] [-parallel 8]
//	psharp-bench -table all
//
// With -check, the Table 1 results are compared against the expected
// false-positive counts encoded in internal/benchsrc (the paper's published
// numbers) and the command exits non-zero on any drift; CI uses this as the
// Table 1 gate. With -json, the Table 1 rows just printed (the time column
// in microseconds, median of five) are also written to a file, under the
// environment they were measured in. What a scheduling point or an analysis
// pass costs layer by layer is not this command's business: bash
// bench/run.sh measures it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/psharp-go/psharp/internal/tables"
	"github.com/psharp-go/psharp/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body, separated from main so the flag-handling tests
// can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psharp-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "which table to regenerate: 1, 2 or all")
	iterations := fs.Int("iterations", 10000, "schedule budget per Table 2 cell (paper: 10,000)")
	timeout := fs.Duration("timeout", 5*time.Minute, "time budget per Table 2 cell (paper: 5m)")
	seed := fs.Uint64("seed", 20150628, "random scheduler seed")
	parallel := fs.Int("parallel", 1, "exploration workers per Table 2 cell (0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "also write the Table 1 rows, with the environment they were measured in, to this file as JSON")
	check := fs.Bool("check", false, "compare Table 1 results against the expected counts in internal/benchsrc and exit non-zero on drift")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(code int, a ...any) int {
		fmt.Fprintln(stderr, append([]any{"psharp-bench:"}, a...)...)
		return code
	}
	if *parallel <= 0 {
		// tables treats Workers 0/1 as the paper's sequential setup, so
		// resolve the "all cores" spelling here.
		*parallel = runtime.GOMAXPROCS(0)
	}

	switch *table {
	case "1", "2", "all":
	default:
		return fail(2, fmt.Sprintf("unknown -table %q (want 1, 2 or all)", *table))
	}
	table1, table2 := *table != "2", *table != "1"
	if *check && !table1 {
		return fail(2, "-check requires -table 1 or -table all")
	}
	if *jsonPath != "" && !table1 {
		return fail(2, "-json requires -table 1 or -table all")
	}
	opts2 := tables.Table2Options{Iterations: *iterations, Timeout: *timeout, Seed: *seed, Workers: *parallel}
	if table2 {
		if err := opts2.Validate(); err != nil {
			return fail(2, err)
		}
	}

	if table1 {
		var out *os.File
		if *jsonPath != "" {
			// Opened before the analysis runs, so an unwritable path fails
			// at once instead of after the work.
			var err error
			if out, err = os.Create(*jsonPath); err != nil {
				return fail(1, err)
			}
			defer out.Close()
		}
		fmt.Fprintln(stdout, "== Table 1: static data race analysis ==")
		rows, err := tables.RunTable1()
		if err != nil {
			return fail(1, err)
		}
		tables.PrintTable1(stdout, rows)
		fmt.Fprintln(stdout)
		if out != nil {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			err := enc.Encode(struct {
				Env    obs.Env            `json:"env"`
				Table1 []tables.Table1Row `json:"table1"`
			}{obs.CaptureEnv(), rows})
			if err == nil {
				err = out.Close()
			}
			if err != nil {
				return fail(1, err)
			}
		}
		if *check {
			if drift := tables.CheckTable1(rows); len(drift) > 0 {
				for _, d := range drift {
					fail(1, "Table 1 drift:", d)
				}
				return 1
			}
			fmt.Fprintf(stdout, "Table 1 check: all %d benchmarks match the paper's false-positive counts\n", len(rows))
		}
	}
	if table2 {
		fmt.Fprintf(stdout, "== Table 2: scheduler comparison (budget: %d schedules / %v per cell) ==\n",
			*iterations, *timeout)
		rows, err := tables.RunTable2(opts2)
		if err != nil {
			return fail(1, err)
		}
		tables.PrintTable2(stdout, rows)
	}
	return 0
}
