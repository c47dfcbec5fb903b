package sct_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/obs"
	"github.com/psharp-go/psharp/sct"
)

// runawaySetup builds a program that never quiesces: a machine endlessly
// re-sends itself an event, so with MaxSteps=0 a single iteration runs
// forever unless the engine's hard deadline interrupts it.
func runawaySetup() func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Spinner", func() psharp.Machine { return &spinner{} })
		id := r.MustCreate("Spinner", nil)
		if err := r.SendEvent(id, &tick{}); err != nil {
			panic(err)
		}
	}
}

// spinner re-sends itself every tick it handles.
type spinner struct{ psharp.StaticBase }

func (*spinner) ConfigureType(sc *psharp.Schema) {
	sc.Start("Spin").
		OnEventDoM(&tick{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			ctx.Send(ctx.ID(), &tick{})
		})
}

// pingPongSetup builds a pair of machines that never quiesce: each learns
// the other from a cfg and answers every tick with one to it, so the
// scheduler hands control back and forth at every point.
func pingPongSetup() func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Player", func() psharp.Machine { return &player{} })
		a, b := r.MustCreate("Player", nil), r.MustCreate("Player", nil)
		for _, ev := range []struct {
			to psharp.MachineID
			ev psharp.Event
		}{{a, &cfg{Target: b}}, {b, &cfg{Target: a}}, {a, &tick{}}} {
			if err := r.SendEvent(ev.to, ev.ev); err != nil {
				panic(err)
			}
		}
	}
}

// player returns every tick to the partner its cfg named.
type player struct {
	psharp.StaticBase
	partner psharp.MachineID
}

func (*player) ConfigureType(sc *psharp.Schema) {
	sc.Start("Play").
		OnEventDoM(&cfg{}, func(m psharp.Machine, _ *psharp.Context, ev psharp.Event) {
			m.(*player).partner = ev.(*cfg).Target
		}).
		OnEventDoM(&tick{}, func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			ctx.Send(m.(*player).partner, &tick{})
		})
}

func reportCounts(r sct.Report) [7]int64 {
	return [7]int64{
		int64(r.Iterations), int64(r.DistinctSchedules), int64(r.BuggyIterations),
		int64(r.MaxSchedulingPoints), r.TotalSchedulingPoints,
		int64(r.MaxMachines), int64(r.FirstBugIteration),
	}
}

// TestParallelMatchesSequentialRandom checks the sharding invariant: a
// homogeneous sharded run explores exactly the same schedule population as
// the sequential run with the same seed and budget, so every merged count
// matches the sequential report.
func TestParallelMatchesSequentialRandom(t *testing.T) {
	const iterations = 400
	seq := sct.Run(orderBugSetup, sct.Options{
		Strategy:   sct.NewRandom(42),
		Iterations: iterations,
		MaxSteps:   100,
	})
	if !seq.BugFound() {
		t.Fatal("sequential run found no bug; the setup is supposed to be bug-rich")
	}
	for _, workers := range []int{2, 4, 7} {
		par := sct.RunParallel(orderBugSetup, sct.ParallelOptions{
			Options: sct.Options{
				Strategy:   sct.NewRandom(42),
				Iterations: iterations,
				MaxSteps:   100,
			},
			Workers: workers,
		})
		if got, want := reportCounts(par.Report), reportCounts(seq); got != want {
			t.Errorf("workers=%d: merged counts %v, want sequential %v", workers, got, want)
		}
		if len(par.Workers) != workers {
			t.Errorf("workers=%d: %d sub-reports", workers, len(par.Workers))
		}
		sum := 0
		for _, w := range par.Workers {
			sum += w.Report.Iterations
		}
		if sum != par.Iterations {
			t.Errorf("workers=%d: sub-report iterations sum %d != merged %d", workers, sum, par.Iterations)
		}
	}
}

// TestParallelDeterminism checks the reproducibility contract: same seed +
// same worker count => identical merged counts, for both a homogeneous
// strategy and a heterogeneous portfolio.
func TestParallelDeterminism(t *testing.T) {
	run := func() (sct.ParallelReport, sct.ParallelReport) {
		homog := sct.RunParallel(orderBugSetup, sct.ParallelOptions{
			Options: sct.Options{Strategy: sct.NewPCT(7, 3, 50), Iterations: 200, MaxSteps: 100},
			Workers: 4,
		})
		pf, err := sct.ParsePortfolio("default", 7, 100, -1)
		if err != nil {
			t.Fatal(err)
		}
		mixed := sct.RunParallel(orderBugSetup, sct.ParallelOptions{
			Options:   sct.Options{Iterations: 200, MaxSteps: 100},
			Workers:   4,
			Portfolio: pf,
		})
		return homog, mixed
	}
	h1, m1 := run()
	g1, x1 := run()
	if a, b := reportCounts(h1.Report), reportCounts(g1.Report); a != b {
		t.Errorf("homogeneous parallel run not deterministic:\n%v\n%v", a, b)
	}
	if a, b := reportCounts(m1.Report), reportCounts(x1.Report); a != b {
		t.Errorf("portfolio parallel run not deterministic:\n%v\n%v", a, b)
	}
	wantNames := []string{"random", "pct", "delay", "dfs"}
	for i, w := range m1.Workers {
		if w.Strategy != wantNames[i%len(wantNames)] {
			t.Errorf("worker %d runs %q, want %q", i, w.Strategy, wantNames[i%len(wantNames)])
		}
	}
}

// TestParallelDFSShardsCoverTree checks that sharded DFS clones jointly
// cover exactly the sequential DFS's schedule tree: the merged distinct
// count equals the sequential iteration count, every worker exhausts, and
// duplicated work is bounded by the n-1 probe schedules.
func TestParallelDFSShardsCoverTree(t *testing.T) {
	seq := sct.Run(fanInSetup(3), sct.Options{
		Strategy:   sct.NewDFS(),
		Iterations: 1_000_000,
		MaxSteps:   1000,
	})
	if !seq.Exhausted {
		t.Fatalf("sequential DFS did not exhaust: %s", seq.String())
	}
	for _, workers := range []int{2, 3, 5} {
		par := sct.RunParallel(fanInSetup(3), sct.ParallelOptions{
			Options: sct.Options{
				Strategy:   sct.NewDFS(),
				Iterations: 1_000_000,
				MaxSteps:   1000,
			},
			Workers: workers,
		})
		if par.DistinctSchedules != seq.Iterations {
			t.Errorf("workers=%d: %d distinct schedules, want the full tree of %d",
				workers, par.DistinctSchedules, seq.Iterations)
		}
		if !par.Exhausted {
			t.Errorf("workers=%d: merged report not exhausted", workers)
		}
		if par.Iterations > seq.Iterations+workers-1 {
			t.Errorf("workers=%d: %d iterations exceeds tree size %d plus %d probes",
				workers, par.Iterations, seq.Iterations, workers-1)
		}
	}
}

// TestParallelFirstBugReplays checks the no-false-positives contract under
// parallelism: whichever worker finds the first bug, its trace replays
// deterministically through sct.ReplayTrace and reproduces the same bug.
func TestParallelFirstBugReplays(t *testing.T) {
	par := sct.RunParallel(orderBugSetup, sct.ParallelOptions{
		Options: sct.Options{
			Strategy:       sct.NewRandom(5),
			Iterations:     100_000,
			MaxSteps:       100,
			StopOnFirstBug: true,
		},
		Workers: 4,
	})
	if !par.BugFound() {
		t.Fatal("no bug found")
	}
	if par.Iterations >= 100_000 {
		t.Fatalf("StopOnFirstBug did not halt the workers: %d iterations", par.Iterations)
	}
	res := sct.ReplayTrace(orderBugSetup, par.FirstBugTrace, psharp.TestConfig{MaxSteps: 100})
	if res.Bug == nil {
		t.Fatal("replay of the parallel first-bug trace found no bug")
	}
	if res.Bug.Kind != par.FirstBug.Kind || res.Bug.Message != par.FirstBug.Message {
		t.Fatalf("replay reproduced %v, want %v", res.Bug, par.FirstBug)
	}
}

// TestTimeoutIsAHardDeadline checks that the Timeout budget interrupts even
// a single never-terminating iteration, sequentially and in parallel, and
// that the run says it was interrupted. The deadline is a timer that sets
// the flag the scheduling points poll, so nothing else can stop these
// iterations: a lone machine sending to itself, and a pair that hands
// control back and forth at every point.
func TestTimeoutIsAHardDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	for name, setup := range map[string]func(*psharp.Runtime){"spinner": runawaySetup(), "pair": pingPongSetup()} {
		for _, workers := range []int{1, 4} {
			start := time.Now()
			rep := sct.RunParallel(setup, sct.ParallelOptions{
				Options: sct.Options{Strategy: sct.NewRandom(1), Iterations: 10, Timeout: timeout},
				Workers: workers,
			})
			if elapsed := time.Since(start); elapsed > 40*timeout {
				t.Fatalf("%s, %d workers: the runaway iterations overran the hard deadline: %v", name, workers, elapsed)
			}
			if !rep.Interrupted || rep.Iterations != 0 {
				t.Errorf("%s, %d workers: want an interrupted run with no iteration counted, got %s", name, workers, rep.Report.String())
			}
		}
	}
}

// TestParallelProgressIsCoherent checks that concurrent workers write whole
// progress lines tagged with their worker id.
func TestParallelProgressIsCoherent(t *testing.T) {
	var buf bytes.Buffer
	sct.RunParallel(fanInSetup(3), sct.ParallelOptions{
		Options: sct.Options{
			Strategy:      sct.NewRandom(3),
			Iterations:    200,
			MaxSteps:      1000,
			Progress:      sct.ProgressText(&buf),
			ProgressEvery: 10,
		},
		Workers: 4,
	})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no progress output")
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "sct: [w") {
			t.Fatalf("progress line without worker id: %q", line)
		}
	}
}

// TestParsePortfolio covers the CLI-facing portfolio spec parser.
func TestParsePortfolio(t *testing.T) {
	p, err := sct.ParsePortfolio("default", 1, 100, -1)
	if err != nil || p.Size() != 4 {
		t.Fatalf("default portfolio: %v (size %d)", err, p.Size())
	}
	p, err = sct.ParsePortfolio("random, random ,dfs", 1, 0, -1)
	if err != nil || p.Size() != 3 {
		t.Fatalf("explicit portfolio: %v", err)
	}
	if _, err := sct.ParsePortfolio("random,,dfs", 1, 100, -1); err == nil {
		t.Error("empty member not rejected")
	}
	if _, err := sct.ParsePortfolio("quantum", 1, 100, -1); err == nil {
		t.Error("unknown member not rejected")
	}
}

// TestStaticShardOfAnExhaustedMember pins what a worker of a skewed portfolio
// does: each runs its own static shard of the budget. A DFS member whose tree
// is smaller than its shard stops, exhausted, after the tree; the other
// member runs exactly its quota and no more; and the merged report counts
// both without calling the run exhausted or interrupted.
func TestStaticShardOfAnExhaustedMember(t *testing.T) {
	// fanInSetup(2) has a 72-schedule DFS tree, within DFS's 150-iteration shard.
	const iterations, tree, quota = 300, 72, 150
	pf, err := sct.ParsePortfolio("dfs,random", 7, 1000, -1)
	if err != nil {
		t.Fatal(err)
	}
	par := sct.RunParallel(fanInSetup(2), sct.ParallelOptions{
		Options:   sct.Options{Iterations: iterations, MaxSteps: 1000},
		Workers:   2,
		Portfolio: pf,
	})
	if len(par.Workers) != 2 || par.Workers[0].Strategy != "dfs" || par.Workers[1].Strategy != "random" {
		t.Fatalf("portfolio workers missing: %+v", par.Workers)
	}
	dfsRep, randRep := par.Workers[0].Report, par.Workers[1].Report
	if !dfsRep.Exhausted || dfsRep.Iterations != tree {
		t.Fatalf("DFS worker ran %d iterations (exhausted=%v), want its whole %d-schedule tree; resize the program",
			dfsRep.Iterations, dfsRep.Exhausted, tree)
	}
	if randRep.Exhausted || randRep.Iterations != quota {
		t.Errorf("random worker ran %d iterations (exhausted=%v), want its quota of %d", randRep.Iterations, randRep.Exhausted, quota)
	}
	if par.Iterations != tree+quota || par.Exhausted || par.Interrupted {
		t.Errorf("merged report: %d iterations (exhausted=%v, interrupted=%v), want %d, neither exhausted nor interrupted",
			par.Iterations, par.Exhausted, par.Interrupted, tree+quota)
	}
}

// TestTimeBudgetOutlivesAnExhaustedMember is the same portfolio under a time
// budget with more iterations than it can spend: the DFS member still stops,
// exhausted, after its tree, and the random member keeps exploring its shard
// until the deadline ends the run.
func TestTimeBudgetOutlivesAnExhaustedMember(t *testing.T) {
	const tree, timeout = 72, 100 * time.Millisecond
	pf, err := sct.ParsePortfolio("dfs,random", 7, 1000, -1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	par := sct.RunParallel(fanInSetup(2), sct.ParallelOptions{
		Options:   sct.Options{Iterations: 1 << 30, MaxSteps: 1000, Timeout: timeout},
		Workers:   2,
		Portfolio: pf,
	})
	elapsed := time.Since(start)
	dfsRep, randRep := par.Workers[0].Report, par.Workers[1].Report
	if !dfsRep.Exhausted || dfsRep.Iterations != tree {
		t.Fatalf("DFS worker ran %d iterations (exhausted=%v), want its whole %d-schedule tree", dfsRep.Iterations, dfsRep.Exhausted, tree)
	}
	if randRep.Exhausted || randRep.Iterations <= tree {
		t.Errorf("random worker ran %d iterations (exhausted=%v), want it to outlast the DFS tree", randRep.Iterations, randRep.Exhausted)
	}
	if elapsed < timeout || !par.Interrupted || par.Exhausted {
		t.Errorf("run ended after %v (interrupted=%v, exhausted=%v), want it to last to the %v deadline, interrupted",
			elapsed, par.Interrupted, par.Exhausted, timeout)
	}
}

// TestRunParallelSingleWorkerMatchesRun pins the refactoring invariant that
// sequential Run is the one-worker case of the parallel engine.
func TestRunParallelSingleWorkerMatchesRun(t *testing.T) {
	opts := sct.Options{Strategy: sct.NewRandom(11), Iterations: 60, MaxSteps: 1000}
	seq := sct.Run(fanInSetup(3), opts)
	par := sct.RunParallel(fanInSetup(3), sct.ParallelOptions{
		Options: sct.Options{Strategy: sct.NewRandom(11), Iterations: 60, MaxSteps: 1000},
		Workers: 1,
	})
	if a, b := reportCounts(par.Report), reportCounts(seq); a != b {
		t.Fatalf("one-worker parallel run diverged from sequential:\n%v\n%v", a, b)
	}
}

// TestWorkerStateOwnsItsCacheLines: what a worker writes at every scheduling
// point — its strategy, whichever row of the strategy table, a Replay or a
// FaultInjector, and its harness's coverage counts — is followed by at least
// a cache line that holds nothing written, so that two workers' state
// allocated side by side (RunParallel clones on one goroutine, portfolio
// members are built back to back) never shares a line.
func TestWorkerStateOwnsItsCacheLines(t *testing.T) {
	const line = 64
	strategies := map[string]sct.Strategy{
		"replay": sct.NewReplay(&psharp.Trace{}),
		"faults": sct.NewFaultInjector(sct.NewRandom(1), sct.FaultOptions{Budget: 2}),
	}
	for _, name := range sct.StrategyTableNames() {
		s, err := sct.NewStrategy(name, 1, 100, -1)
		if err != nil {
			t.Fatal(err)
		}
		strategies[name] = s
	}
	for name, s := range strategies {
		typ := reflect.TypeOf(s).Elem()
		if pad := typ.Size() - writtenEnd(typ); pad < line {
			t.Errorf("%s: %v is %d bytes, its last written word ends at %d: %d bytes of pad, want %d",
				name, typ, typ.Size(), writtenEnd(typ), pad, line)
		}
	}

	b := protocols.MustByName("TwoPhaseCommit", true)
	h := psharp.NewTestHarness(b.Setup)
	defer h.Close()
	s := sct.NewRandom(1)
	s.PrepareIteration(0)
	h.Run(psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps, Coverage: new(obs.StateEventCoverage)})
	if slots, pad := sct.CoverageCounts(h); slots == 0 || pad*8 < line {
		t.Errorf("coverage counts: %d slots and %d bytes of capacity past them, want some and %d", slots, pad*8, line)
	}
}

// writtenEnd is where the last word of t that is not a blank field ends.
func writtenEnd(t reflect.Type) uintptr {
	if t.Kind() != reflect.Struct {
		return t.Size()
	}
	end := uintptr(0)
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Name != "_" {
			end = max(end, f.Offset+writtenEnd(f.Type))
		}
	}
	return end
}
