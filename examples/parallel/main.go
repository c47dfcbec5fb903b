// Parallel demonstrates the portfolio exploration engine on the seeded Raft
// election-safety bug: a homogeneous sharded-random run that explores
// exactly the same schedule population as the sequential run (just across
// workers), then a heterogeneous random/PCT/delay/DFS portfolio, and a
// deterministic replay of whatever trace the winning worker recorded.
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

func main() {
	raft := protocols.MustByName("Raft", true)

	fmt.Println("hunting the Raft election-safety bug with a worker pool...")

	// Homogeneous: the same random search, sharded over 4 workers. Worker w
	// explores global iterations {w, w+4, w+8, ...} of the seed stream, so
	// the schedule population is identical to a sequential Run with this
	// seed — only the wall-clock changes.
	sharded := sct.RunParallel(raft.Setup, sct.ParallelOptions{
		Options: sct.Options{
			Strategy:       sct.NewRandom(20150628),
			Iterations:     20000,
			Timeout:        time.Minute,
			MaxSteps:       raft.MaxSteps,
			StopOnFirstBug: true,
		},
		Workers: 4,
	})
	fmt.Printf("  sharded random x4: %s\n", sharded.String())

	// Heterogeneous: one worker each of random, PCT(d=3), delay-bounding
	// and DFS. The portfolio hedges: whichever strategy fits the bug wins,
	// and StopOnFirstBug cancels the rest promptly.
	portfolio, err := sct.ParsePortfolio("default", 20150628, raft.MaxSteps, -1)
	if err != nil {
		panic(err)
	}
	mixed := sct.RunParallel(raft.Setup, sct.ParallelOptions{
		Options: sct.Options{
			Iterations:     20000,
			Timeout:        time.Minute,
			MaxSteps:       raft.MaxSteps,
			StopOnFirstBug: true,
		},
		Workers:   4,
		Portfolio: portfolio,
	})
	for _, w := range mixed.Workers {
		fmt.Printf("    worker %d (%s): %s\n", w.Worker, w.Strategy, w.Report.String())
	}
	fmt.Printf("  portfolio x4: %s\n", mixed.String())

	winner := mixed.Report
	if !winner.BugFound() {
		winner = sharded.Report
	}
	if !winner.BugFound() {
		fmt.Println("no worker found the bug this time; increase the budget")
		os.Exit(1)
	}

	// A parallel find is as replayable as a sequential one: the winning
	// worker's trace reproduces the bug deterministically.
	res := sct.ReplayTrace(raft.Setup, winner.FirstBugTrace, psharp.TestConfig{MaxSteps: raft.MaxSteps})
	if res.Bug == nil {
		fmt.Println("replay failed to reproduce the bug")
		os.Exit(1)
	}
	fmt.Printf("  replayed deterministically: %v\n", res.Bug)
}
