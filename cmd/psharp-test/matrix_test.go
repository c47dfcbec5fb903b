package main

// The option-compatibility matrix, walked once for every surface that
// takes the options: sct.ParallelOptions.Validate is the rulebook, and
// sct.RunParallel and the command line must give its verdict — the same
// text on refusal, a completed run whose bug replays on acceptance. It is
// walked twice: stopping at the first bug, as psharp-test does by default,
// and under -keep-going, where every worker runs its static shard to the end.
// Besides Chord, one row runs FairResponder with its hot/cold monitor
// attached, where every option meets the controller's lasso check.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/journal"
	"github.com/psharp-go/psharp/sct"
)

// matrixCell is one configuration, spelled once and rendered both as
// sct.ParallelOptions and as psharp-test flags.
type matrixCell struct {
	monitored  bool   // FairResponder(buggy) with -monitors instead of Chord(buggy)
	strategy   string // a table name, or a portfolio spec when it has a comma
	iterations int
	faults     int
	stateCache bool
	journal    bool
	shard      bool // shard 1/2
	workers    int
}

func (c matrixCell) String() string {
	s := fmt.Sprintf("%s iterations=%d faults=%d cache=%t journal=%t shard=%t workers=%d",
		c.strategy, c.iterations, c.faults, c.stateCache, c.journal, c.shard, c.workers)
	if c.monitored {
		s = "monitored " + s
	}
	return s
}

// bench is the benchmark a cell runs, and the setup that matches its flags.
func (c matrixCell) bench() (protocols.Benchmark, func(*psharp.Runtime)) {
	if c.monitored {
		b := protocols.MustByName("FairResponder", true)
		return b, b.SetupMonitored()
	}
	b := protocols.MustByName("Chord", true)
	return b, b.Setup
}

func TestOptionMatrix(t *testing.T) { walkOptionMatrix(t, false) }

// TestOptionMatrixKeepGoing holds the static shards to their quotas: a
// worker whose strategy does not exhaust spends exactly its share of the
// budget, and since a full static run is deterministic the command line
// reports the same counts as RunParallel — except where several workers
// share a state cache, and which of them prunes a state is a race.
func TestOptionMatrixKeepGoing(t *testing.T) { walkOptionMatrix(t, true) }

func walkOptionMatrix(t *testing.T, keepGoing bool) {
	const seed = 1

	var cells []matrixCell
	bools := []bool{false, true}
	rows := []matrixCell{{strategy: "random"}, {strategy: "pct"}, {strategy: "delay"},
		{strategy: "dfs"}, {strategy: "dpor"}, {strategy: "random,dfs"}, {strategy: "dfs,dpor"},
		{strategy: "dpor,random"}, {strategy: "dpor,dpor"}, {monitored: true, strategy: "random"}}
	for _, row := range rows {
		for _, faults := range []int{0, 1} {
			for _, stateCache := range bools {
				for _, journal := range bools {
					for _, shard := range bools {
						for _, workers := range []int{1, 2} {
							cells = append(cells, matrixCell{row.monitored, row.strategy, 20, faults, stateCache, journal, shard, workers})
						}
					}
				}
			}
		}
	}
	cells = append(cells, matrixCell{strategy: "random", iterations: 0, workers: 1})

	refused, accepted := 0, 0
	for _, c := range cells {
		t.Run(c.String(), func(t *testing.T) {
			b, setup := c.bench()
			replays := func(t *testing.T, surface string, tr *psharp.Trace) {
				t.Helper()
				cfg := psharp.TestConfig{MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug}
				if res := sct.ReplayTrace(setup, tr, cfg); res.Bug == nil {
					t.Errorf("%s: the found bug does not replay", surface)
				}
			}
			dir := t.TempDir()
			cliJournal, cliTrace := filepath.Join(dir, "cli-journal"), filepath.Join(dir, "cli.trace")
			cliReport := filepath.Join(dir, "cli.json")
			popts := sct.ParallelOptions{
				Options: sct.Options{
					Iterations:     c.iterations,
					MaxSteps:       b.MaxSteps,
					StopOnFirstBug: !keepGoing,
					LivelockAsBug:  b.LivelockAsBug,
					StateCache:     c.stateCache,
				},
				Workers: c.workers,
			}
			args := []string{"-bench", b.Name, "-buggy", "-seed", strconv.Itoa(seed),
				"-iterations", strconv.Itoa(c.iterations), "-parallel", strconv.Itoa(c.workers),
				"-trace-out", cliTrace}
			if c.monitored {
				args = append(args, "-monitors")
			}
			var err error
			if strings.Contains(c.strategy, ",") {
				popts.Portfolio, err = sct.ParsePortfolio(c.strategy, seed, b.MaxSteps)
				args = append(args, "-portfolio", c.strategy)
			} else {
				popts.Strategy, err = sct.NewStrategy(c.strategy, seed, b.MaxSteps)
				args = append(args, "-strategy", c.strategy)
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.faults > 0 {
				popts.Faults = sct.FaultOptions{Budget: c.faults, Seed: seed, Immune: b.FaultImmune, Restart: true}
				args = append(args, "-faults", strconv.Itoa(c.faults))
			}
			if c.stateCache {
				args = append(args, "-state-cache")
			}
			if keepGoing {
				args = append(args, "-keep-going", "-report-out", cliReport)
			}
			if c.shard {
				popts.ShardCount = 2
				args = append(args, "-shard", "1/2")
			}
			if c.journal {
				meta := journal.Meta{Benchmark: b.ID(), Strategy: c.strategy, Seed: seed,
					Workers: c.workers, ShardCount: max(popts.ShardCount, 1), MaxSteps: b.MaxSteps}
				jc, err := journal.Create(filepath.Join(dir, "api-journal"), meta, journal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer jc.Close()
				popts.Journal = jc
				args = append(args, "-journal", cliJournal)
			}

			want := popts.Validate()
			var prep sct.ParallelReport
			panicked := func() (v any) {
				defer func() { v = recover() }()
				prep = sct.RunParallel(setup, popts)
				return nil
			}()
			code, stdout, stderr := runCLI(t, args...)

			if want != nil {
				refused++
				if panicked != "sct: "+want.Error() {
					t.Errorf("RunParallel panic = %v, want Validate's %q", panicked, want)
				}
				if line := "psharp-test: " + want.Error() + "\n"; code != 2 || stderr != line {
					t.Errorf("CLI exit %d, stderr %q; want exit 2 and exactly %q", code, stderr, line)
				}
				if _, err := os.Stat(cliJournal); !os.IsNotExist(err) {
					t.Errorf("CLI touched the journal directory before refusing (stat: %v)", err)
				}
				return
			}
			accepted++
			if panicked != nil {
				t.Fatalf("Validate accepts, RunParallel panics: %v", panicked)
			}
			if code != 0 && code != 1 {
				t.Fatalf("Validate accepts, CLI exits %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
			}
			if prep.Interrupted || prep.Iterations+prep.PrunedIterations == 0 {
				t.Errorf("RunParallel did not complete: %s", prep.Report.String())
			}
			if prep.BugFound() {
				replays(t, "RunParallel", prep.FirstBugTrace)
			}
			if bug := prep.FirstBug; c.monitored && (bug == nil || bug.Kind != psharp.BugLiveness) {
				t.Errorf("monitored FairResponder(buggy): first bug %v, want the monitor's liveness violation", bug)
			}
			if code == 1 {
				f, err := os.Open(cliTrace)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				tr, err := psharp.DecodeTrace(f)
				if err != nil {
					t.Fatal(err)
				}
				replays(t, "CLI", tr)
			}
			if !keepGoing {
				return
			}
			// Every cell's budget splits evenly over the workers of all shards.
			quota := c.iterations / (c.workers * max(popts.ShardCount, 1))
			for _, w := range prep.Workers {
				if ran := w.Report.Iterations + w.Report.PrunedIterations; !w.Report.Exhausted && ran != quota {
					t.Errorf("worker %d (%s) ran %d schedules, want its quota of %d", w.Worker, w.Strategy, ran, quota)
				}
			}
			if c.stateCache && len(prep.Workers) > 1 {
				return
			}
			res := readCampaign(t, cliReport).Result
			cli := [4]int{res.Iterations, res.PrunedIterations, res.BuggyIterations, res.DistinctSchedules}
			api := [4]int{prep.Iterations, prep.PrunedIterations, prep.BuggyIterations, prep.DistinctSchedules}
			if cli != api {
				t.Errorf("CLI counts %v, RunParallel %v (iterations, pruned, buggy, distinct)", cli, api)
			}
		})
	}
	// Both verdicts must be exercised, or the table proves nothing.
	t.Logf("%d cells: %d refused, %d accepted", len(cells), refused, accepted)
	if refused < 100 || accepted < 100 {
		t.Errorf("matrix is lopsided: %d cells refused, %d accepted", refused, accepted)
	}
}
