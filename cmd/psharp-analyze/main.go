// Command psharp-analyze runs the static data-race analysis on core-language
// source files.
//
// Usage:
//
//	psharp-analyze [-no-xsa] [-readonly] [-gives-up] file.psl...
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/psharp-go/psharp/analysis"
	"github.com/psharp-go/psharp/lang"
)

func main() {
	noXSA := flag.Bool("no-xsa", false, "disable the cross-state analysis")
	readOnly := flag.Bool("readonly", false, "enable the read-only extension")
	givesUp := flag.Bool("gives-up", false, "print the per-method give-up sets")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: psharp-analyze [-no-xsa] [-readonly] [-gives-up] file.psl...")
		os.Exit(2)
	}
	exit := 0
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "psharp-analyze:", err)
			os.Exit(1)
		}
		prog, err := lang.Parse(string(data))
		if err == nil {
			err = lang.Check(prog)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "psharp-analyze: %s: %v\n", path, err)
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
				fmt.Printf("%s: gives up %v\n", k, gu[k])
			}
		}
		if res.Verified() {
			fmt.Printf("%s: verified race-free (%d warnings discharged)\n",
				path, len(res.BaseViolations)+res.ReadOnlySuppressed)
			continue
		}
		exit = 1
		fmt.Printf("%s: %d potential data race(s):\n", path, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Printf("  %v\n", v)
		}
	}
	os.Exit(exit)
}
