// Command psharp-analyze runs the static data-race analysis on core-language
// source files.
//
// Usage:
//
//	psharp-analyze [-no-xsa] [-readonly] [-gives-up] file.psl...
//
// It exits 0 if every file was verified race-free, 1 if any file has
// potential races or could not be read, parsed or checked (the remaining
// files are still analysed), and 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/psharp-go/psharp/analysis"
	"github.com/psharp-go/psharp/lang"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body, separated from main so the tests can drive it
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psharp-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	noXSA := fs.Bool("no-xsa", false, "disable the cross-state analysis")
	readOnly := fs.Bool("readonly", false, "enable the read-only extension")
	givesUp := fs.Bool("gives-up", false, "print the per-method give-up sets")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: psharp-analyze [-no-xsa] [-readonly] [-gives-up] file.psl...")
		return 2
	}
	exit := 0
	for _, path := range fs.Args() {
		prog, err := load(path)
		if err != nil {
			fmt.Fprintln(stderr, "psharp-analyze:", err)
			exit = 1
			continue
		}
		// One solution of the base fixpoint serves both outputs.
		res, gu := analysis.AnalyzeGivesUp(prog, analysis.Options{XSA: !*noXSA, ReadOnly: *readOnly})
		if *givesUp {
			keys := make([]string, 0, len(gu))
			for k := range gu {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(stdout, "%s: gives up %v\n", k, gu[k])
			}
		}
		if res.Verified() {
			fmt.Fprintf(stdout, "%s: verified race-free (%d warnings discharged)\n",
				path, len(res.BaseViolations)+res.ReadOnlySuppressed)
			continue
		}
		exit = 1
		fmt.Fprintf(stdout, "%s: %d potential data race(s):\n", path, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(stdout, "  %v\n", v)
		}
	}
	return exit
}

// load reads, parses and checks one source file.
func load(path string) (*lang.Program, error) {
	data, err := os.ReadFile(path) // the error names the path
	if err != nil {
		return nil, err
	}
	prog, err := lang.Parse(string(data))
	if err == nil {
		err = lang.Check(prog)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return prog, nil
}
