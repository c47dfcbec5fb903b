// Command psharp-bench regenerates the paper's evaluation tables and tracks
// exploration-performance trends.
//
// Usage:
//
//	psharp-bench -table 1 [-check]
//	psharp-bench -table 2 [-iterations 10000] [-timeout 5m] [-parallel 8 [-dynamic]]
//	psharp-bench -table all
//	psharp-bench -table none -json BENCH_sct.json
//
// With -check, the Table 1 results are compared against the expected
// false-positive counts encoded in internal/benchsrc (the paper's published
// numbers) and the command exits non-zero on any drift; CI uses this as the
// Table 1 gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/psharp-go/psharp/internal/tables"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1, 2, all or none")
	iterations := flag.Int("iterations", 10000, "schedule budget per Table 2 cell (paper: 10,000)")
	timeout := flag.Duration("timeout", 5*time.Minute, "time budget per Table 2 cell (paper: 5m)")
	seed := flag.Uint64("seed", 20150628, "random scheduler seed")
	parallel := flag.Int("parallel", 1, "exploration workers per Table 2 cell (0 = GOMAXPROCS)")
	dynamic := flag.Bool("dynamic", false, "work-stealing iteration assignment for parallel cells (trades population reproducibility for utilization)")
	jsonPath := flag.String("json", "", "write a machine-readable perf report (BENCH_sct.json) to this path: schedules/sec, allocs/iteration, per-worker iteration counts")
	check := flag.Bool("check", false, "compare Table 1 results against the expected counts in internal/benchsrc and exit non-zero on drift")
	flag.Parse()
	if *parallel <= 0 {
		// tables treats Workers 0/1 as the paper's sequential setup, so
		// resolve the "all cores" spelling here.
		*parallel = runtime.GOMAXPROCS(0)
	}

	switch *table {
	case "1", "2", "all", "none":
	default:
		fmt.Fprintf(os.Stderr, "psharp-bench: unknown -table %q (want 1, 2, all or none)\n", *table)
		os.Exit(2)
	}

	if *check && *table != "1" && *table != "all" {
		fmt.Fprintln(os.Stderr, "psharp-bench: -check requires -table 1 or -table all")
		os.Exit(2)
	}

	if *table == "1" || *table == "all" {
		fmt.Println("== Table 1: static data race analysis ==")
		rows, err := tables.RunTable1()
		if err != nil {
			fmt.Fprintln(os.Stderr, "psharp-bench:", err)
			os.Exit(1)
		}
		tables.PrintTable1(os.Stdout, rows)
		fmt.Println()
		if *check {
			if drift := tables.CheckTable1(rows); len(drift) > 0 {
				for _, d := range drift {
					fmt.Fprintln(os.Stderr, "psharp-bench: Table 1 drift:", d)
				}
				os.Exit(1)
			}
			fmt.Printf("Table 1 check: all %d benchmarks match the paper's false-positive counts\n", len(rows))
		}
	}
	if *table == "2" || *table == "all" {
		fmt.Printf("== Table 2: scheduler comparison (budget: %d schedules / %v per cell) ==\n",
			*iterations, *timeout)
		rows, err := tables.RunTable2(tables.Table2Options{
			Iterations: *iterations, Timeout: *timeout, Seed: *seed,
			Workers: *parallel, Dynamic: *dynamic,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "psharp-bench:", err)
			os.Exit(1)
		}
		tables.PrintTable2(os.Stdout, rows)
	}
	if *jsonPath != "" {
		rep, err := tables.RunPerfProbe(tables.PerfProbeOptions{
			Iterations: min(*iterations, 2000),
			Workers:    *parallel,
			Dynamic:    *dynamic,
			Seed:       *seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "psharp-bench:", err)
			os.Exit(1)
		}
		if err := tables.WritePerfReport(*jsonPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "psharp-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("perf report written to %s (%.1f schedules/s, allocs/iteration pooled %.1f vs one-shot %.1f on %s)\n",
			*jsonPath, rep.SchedulesPerSec,
			rep.AllocProbes[0].Pooled, rep.AllocProbes[0].OneShot, rep.AllocProbes[0].Workload)
		fmt.Printf("schema cache on %s: %.1f allocs/iteration cached vs %.1f per-instance (%.1f%% saved)\n",
			rep.SchemaProbe.Workload, rep.SchemaProbe.Cached, rep.SchemaProbe.PerInstance,
			rep.SchemaProbe.SavedPercent)
		fmt.Printf("monitor overhead on %s: %.1f allocs/iteration monitored vs %.1f plain (+%.1f)\n",
			rep.MonitorProbe.Workload, rep.MonitorProbe.Monitored, rep.MonitorProbe.Unmonitored,
			rep.MonitorProbe.DeltaAllocs)
		fmt.Printf("telemetry overhead on %s: %.1f allocs/iteration with telemetry vs %.1f plain (+%.2f)\n",
			rep.TelemetryProbe.Workload, rep.TelemetryProbe.Telemetry, rep.TelemetryProbe.Plain,
			rep.TelemetryProbe.DeltaAllocs)
		fmt.Printf("interp coverage over the Table 1 corpus: %d/%d declared transitions dispatched (%.1f%%) across %d benchmarks x %d seeds\n",
			rep.InterpCoverage.CoveredTransitions, rep.InterpCoverage.DeclaredTransitions,
			rep.InterpCoverage.CoveredPercent, rep.InterpCoverage.Benchmarks, rep.InterpCoverage.Seeds)
		fmt.Printf("interp throughput over the Table 1 corpus: %.0f schedules/s bytecode vs %.0f walker (%.1fx) across %d benchmarks x %d seeds\n",
			rep.InterpPerf.BytecodeSchedulesPerSec, rep.InterpPerf.WalkSchedulesPerSec,
			rep.InterpPerf.Speedup, rep.InterpPerf.Benchmarks, rep.InterpPerf.Seeds)
		fmt.Printf("fault injection on %s: %d buggy schedules in %d with a %d-fault budget vs %d fault-free (%d crashes, %d restarts, %d drops, %d dups, %d reorders)\n",
			rep.FaultProbe.Workload, rep.FaultProbe.BuggyWithFaults, rep.FaultProbe.ScheduleBudget,
			rep.FaultProbe.FaultBudget, rep.FaultProbe.BuggyFaultFree,
			rep.FaultProbe.Crashes, rep.FaultProbe.Restarts, rep.FaultProbe.Drops,
			rep.FaultProbe.Duplicates, rep.FaultProbe.Reorders)
		fmt.Printf("resume round trip on %s: split at %d/%d, resumed to %d distinct (%d buggy) vs solo %d distinct (%d buggy), resumed slice ran %d\n",
			rep.ResumeProbe.Workload, rep.ResumeProbe.SplitAt, rep.ResumeProbe.ScheduleBudget,
			rep.ResumeProbe.DistinctResumed, rep.ResumeProbe.BuggyResumed,
			rep.ResumeProbe.DistinctSolo, rep.ResumeProbe.BuggySolo,
			rep.ResumeProbe.ResumedSliceIterations)
		for _, g := range rep.DPORProbe.Benchmarks {
			fmt.Printf("dpor probe on %s: %d schedules to the bug vs random's %d (ratio %.2f, +%d pruned, %d distinct states, found dpor=%v random=%v)\n",
				g.Workload, g.DPORSchedules, g.RandomSchedules, g.Ratio,
				g.PrunedIterations, g.DistinctStates, g.FoundDPOR, g.FoundRandom)
		}
		fmt.Printf("state cache on %s: %d of %d attempts pruned (%.1f%%), %d explored, %d distinct states (%.0f states/s), %.1f%% of executed points were prefix replay\n",
			rep.StateCacheProbe.Workload, rep.StateCacheProbe.Pruned,
			rep.StateCacheProbe.Explored+rep.StateCacheProbe.Pruned,
			rep.StateCacheProbe.PrunedPercent, rep.StateCacheProbe.Explored,
			rep.StateCacheProbe.DistinctStates, rep.StateCacheProbe.StatesPerSec,
			100*rep.StateCacheProbe.ReplayedShare)
		// The telemetry-overhead gate: CI runs this command, so a regression
		// that makes observability allocate on the hot path fails the build.
		if rep.TelemetryProbe.DeltaAllocs > tables.MaxTelemetryDeltaAllocs {
			fmt.Fprintf(os.Stderr, "psharp-bench: telemetry overhead gate: +%.2f allocs/iteration exceeds the %.0f-alloc budget\n",
				rep.TelemetryProbe.DeltaAllocs, tables.MaxTelemetryDeltaAllocs)
			os.Exit(1)
		}
		// The interpreter-throughput gate: the bytecode engine must stay well
		// ahead of the tree-walker on the corpus.
		if rep.InterpPerf.Speedup < tables.MinInterpSpeedup {
			fmt.Fprintf(os.Stderr, "psharp-bench: interp perf gate: bytecode speedup %.2fx is below the %.0fx floor\n",
				rep.InterpPerf.Speedup, tables.MinInterpSpeedup)
			os.Exit(1)
		}
		// The DPOR gate: on the gated corpus subset, DPOR with the state cache
		// must reach every seeded bug in at most half the schedules random
		// search needs — the reduction's reason to exist.
		if !rep.DPORProbe.AllFound || rep.DPORProbe.WorstRatio > tables.MaxDPORScheduleRatio {
			fmt.Fprintf(os.Stderr, "psharp-bench: dpor gate: all bugs found=%v, worst schedule ratio %.2f (budget %.2f)\n",
				rep.DPORProbe.AllFound, rep.DPORProbe.WorstRatio, tables.MaxDPORScheduleRatio)
			os.Exit(1)
		}
		// The resume gate: a budget-split journaled campaign must converge on
		// the uninterrupted run's population exactly.
		if !rep.ResumeProbe.PopulationsMatch {
			fmt.Fprintf(os.Stderr, "psharp-bench: resume gate: split campaign diverged from the uninterrupted run (distinct %d vs %d, buggy %d vs %d, resumed slice %d of %d)\n",
				rep.ResumeProbe.DistinctResumed, rep.ResumeProbe.DistinctSolo,
				rep.ResumeProbe.BuggyResumed, rep.ResumeProbe.BuggySolo,
				rep.ResumeProbe.ResumedSliceIterations,
				rep.ResumeProbe.ScheduleBudget-rep.ResumeProbe.SplitAt)
			os.Exit(1)
		}
	}
}
