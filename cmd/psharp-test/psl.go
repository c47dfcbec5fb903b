package main

// The -psl mode: explore a Table 1 .psl benchmark on the interp package's
// bytecode VM instead of a Go-native protocol, or dump the compiled bytecode
// with -disasm. See the interp package docs, "Bytecode execution".

import (
	"fmt"
	"io"

	"github.com/psharp-go/psharp/internal/benchsrc"
	"github.com/psharp-go/psharp/interp"
	"github.com/psharp-go/psharp/obs"
)

// runPSL explores iterations seeded schedules of the named .psl benchmark
// with the race detector on, and summarizes outcomes: quiescence, bound
// exhaustion, distinct races, transition coverage, and the first fault.
// Exit codes mirror the Go-native mode: 1 when a fault was found, 0 clean,
// 2 for a usage error (a non-positive -iterations among them).
func runPSL(name string, racy, disasm bool, iterations int, seed uint64, stdout, stderr io.Writer) int {
	if iterations <= 0 {
		fmt.Fprintln(stderr, "psharp-test: Iterations must be positive")
		return 2
	}
	prog, err := benchsrc.Source(name, racy)
	if err != nil {
		fmt.Fprintf(stderr, "psharp-test: %v (try -list; .psl benchmarks are marked [psl])\n", err)
		return 2
	}
	if disasm {
		fmt.Fprint(stdout, interp.Disassemble(prog))
		return 0
	}
	main := prog.Machines[0].Name
	var cov obs.StateEventCoverage
	races := map[string]bool{}
	quiescent, bounded := 0, 0
	var firstErr error
	var firstSeed uint64
	for i := 0; i < iterations; i++ {
		s := seed + uint64(i)
		out := interp.Run(prog, main, interp.Options{
			Seed:       s,
			RaceDetect: true,
			Coverage:   &cov,
		})
		if out.Quiescent {
			quiescent++
		}
		if out.BoundReached {
			bounded++
		}
		for _, r := range out.Races {
			races[r] = true
		}
		if out.Err != nil && firstErr == nil {
			firstErr, firstSeed = out.Err, s
		}
	}
	variant := "non-racy"
	if racy {
		variant = "racy"
	}
	fmt.Fprintf(stdout, "%s (%s): %d schedules: %d quiescent, %d bound-limited, %d distinct races, %d/%d transitions covered\n",
		name, variant, iterations, quiescent, bounded, len(races),
		cov.Distinct(), interp.DeclaredTransitions(prog))
	if firstErr != nil {
		fmt.Fprintf(stdout, "first fault (seed %d): %v\n", firstSeed, firstErr)
		return 1
	}
	return 0
}
