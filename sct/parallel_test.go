package sct_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

// orderingBugSetup builds a program with an interleaving-dependent assertion
// failure: the counter requires its two senders to arrive in creation order.
func orderingBugSetup() func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Counter", func() psharp.Machine {
			var first psharp.MachineID
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("Counting").
					OnEventDo(&cfg{}, func(ctx *psharp.Context, ev psharp.Event) {
						sender := ev.(*cfg).Target
						if first.IsNil() {
							first = sender
							return
						}
						ctx.Assert(first.Seq < sender.Seq, "senders arrived out of creation order")
					})
			})
		})
		r.MustRegister("Sender", func() psharp.Machine {
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("S").
					OnEventDo(&cfg{}, func(ctx *psharp.Context, ev psharp.Event) {
						ctx.Send(ev.(*cfg).Target, &cfg{Target: ctx.ID()})
						ctx.Halt()
					})
			})
		})
		counter := r.MustCreate("Counter", nil)
		for i := 0; i < 2; i++ {
			s := r.MustCreate("Sender", nil)
			if err := r.SendEvent(s, &cfg{Target: counter}); err != nil {
				panic(err)
			}
		}
	}
}

// runawaySetup builds a program that never quiesces: a machine endlessly
// re-sends itself an event, so with MaxSteps=0 a single iteration runs
// forever unless the engine's hard deadline interrupts it.
func runawaySetup() func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Spinner", func() psharp.Machine {
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("Spin").
					OnEventDo(&tick{}, func(ctx *psharp.Context, ev psharp.Event) {
						ctx.Send(ctx.ID(), &tick{})
					})
			})
		})
		id := r.MustCreate("Spinner", nil)
		if err := r.SendEvent(id, &tick{}); err != nil {
			panic(err)
		}
	}
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
	seq := sct.Run(orderingBugSetup(), sct.Options{
		Strategy:   sct.NewRandom(42),
		Iterations: iterations,
		MaxSteps:   100,
	})
	if !seq.BugFound() {
		t.Fatal("sequential run found no bug; the setup is supposed to be bug-rich")
	}
	for _, workers := range []int{2, 4, 7} {
		par := sct.RunParallel(orderingBugSetup(), sct.ParallelOptions{
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
		homog := sct.RunParallel(orderingBugSetup(), sct.ParallelOptions{
			Options: sct.Options{Strategy: sct.NewPCT(7, 3, 50), Iterations: 200, MaxSteps: 100},
			Workers: 4,
		})
		pf, err := sct.ParsePortfolio("default", 7, 100)
		if err != nil {
			t.Fatal(err)
		}
		mixed := sct.RunParallel(orderingBugSetup(), sct.ParallelOptions{
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
	par := sct.RunParallel(orderingBugSetup(), sct.ParallelOptions{
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
	res := sct.ReplayTrace(orderingBugSetup(), par.FirstBugTrace, psharp.TestConfig{MaxSteps: 100})
	if res.Bug == nil {
		t.Fatal("replay of the parallel first-bug trace found no bug")
	}
	if res.Bug.Kind != par.FirstBug.Kind || res.Bug.Message != par.FirstBug.Message {
		t.Fatalf("replay reproduced %v, want %v", res.Bug, par.FirstBug)
	}
}

// TestTimeoutIsAHardDeadline checks that the Timeout budget interrupts even
// a single never-terminating iteration, sequentially and in parallel.
func TestTimeoutIsAHardDeadline(t *testing.T) {
	const timeout = 150 * time.Millisecond
	start := time.Now()
	rep := sct.Run(runawaySetup(), sct.Options{
		Strategy:   sct.NewRandom(1),
		Iterations: 10,
		Timeout:    timeout,
	})
	if elapsed := time.Since(start); elapsed > 20*timeout {
		t.Fatalf("sequential Run overran the hard deadline: %v", elapsed)
	}
	if rep.Iterations != 0 {
		t.Errorf("the runaway iteration should not be counted, got %d", rep.Iterations)
	}

	start = time.Now()
	par := sct.RunParallel(runawaySetup(), sct.ParallelOptions{
		Options: sct.Options{
			Strategy:   sct.NewRandom(1),
			Iterations: 10,
			Timeout:    timeout,
		},
		Workers: 4,
	})
	if elapsed := time.Since(start); elapsed > 20*timeout {
		t.Fatalf("RunParallel overran the hard deadline: %v", elapsed)
	}
	if par.Iterations != 0 {
		t.Errorf("no runaway iteration should complete, got %d", par.Iterations)
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
	p, err := sct.ParsePortfolio("default", 1, 100)
	if err != nil || p.Size() != 4 {
		t.Fatalf("default portfolio: %v (size %d)", err, p.Size())
	}
	p, err = sct.ParsePortfolio("random, random ,dfs", 1, 0)
	if err != nil || p.Size() != 3 {
		t.Fatalf("explicit portfolio: %v", err)
	}
	if _, err := sct.ParsePortfolio("random,,dfs", 1, 100); err == nil {
		t.Error("empty member not rejected")
	}
	if _, err := sct.ParsePortfolio("quantum", 1, 100); err == nil {
		t.Error("unknown member not rejected")
	}
}

// TestDynamicShardingExecutesFullBudget checks the work-stealing accounting:
// a dynamic run with no early stop executes exactly the global budget, the
// per-worker sub-reports record the actual (uneven) iteration counts, and
// the bug-rich program still exposes its bug.
func TestDynamicShardingExecutesFullBudget(t *testing.T) {
	const iterations = 400
	for _, workers := range []int{2, 4, 7} {
		par := sct.RunParallel(orderingBugSetup(), sct.ParallelOptions{
			Options: sct.Options{
				Strategy:   sct.NewRandom(42),
				Iterations: iterations,
				MaxSteps:   100,
			},
			Workers: workers,
			Dynamic: true,
		})
		if par.Iterations != iterations {
			t.Errorf("workers=%d: dynamic run executed %d iterations, want the full budget %d",
				workers, par.Iterations, iterations)
		}
		if !par.BugFound() {
			t.Errorf("workers=%d: dynamic run found no bug in a bug-rich program", workers)
		}
		sum := 0
		for _, w := range par.Workers {
			sum += w.Report.Iterations
		}
		if sum != par.Iterations {
			t.Errorf("workers=%d: sub-report iterations sum %d != merged %d", workers, sum, par.Iterations)
		}
		if par.FirstBugIteration < 0 || par.FirstBugIteration >= iterations {
			t.Errorf("workers=%d: FirstBugIteration %d outside ticket range [0,%d)",
				workers, par.FirstBugIteration, iterations)
		}
	}
}

// TestDynamicFirstBugReplays checks the determinism trade-off boundary:
// dynamic sharding gives up population-level reproducibility, but any bug it
// finds still carries a trace that replays deterministically and reproduces
// the same failure — including with StopOnFirstBug cancellation racing the
// workers.
func TestDynamicFirstBugReplays(t *testing.T) {
	par := sct.RunParallel(orderingBugSetup(), sct.ParallelOptions{
		Options: sct.Options{
			Strategy:       sct.NewRandom(5),
			Iterations:     100_000,
			MaxSteps:       100,
			StopOnFirstBug: true,
		},
		Workers: 4,
		Dynamic: true,
	})
	if !par.BugFound() {
		t.Fatal("no bug found")
	}
	if par.Iterations >= 100_000 {
		t.Fatalf("StopOnFirstBug did not halt the dynamic workers: %d iterations", par.Iterations)
	}
	res := sct.ReplayTrace(orderingBugSetup(), par.FirstBugTrace, psharp.TestConfig{MaxSteps: 100})
	if res.Bug == nil {
		t.Fatal("replay of the dynamically-found bug trace found no bug")
	}
	if res.Bug.Kind != par.FirstBug.Kind || res.Bug.Message != par.FirstBug.Message {
		t.Fatalf("replay reproduced %v, want %v", res.Bug, par.FirstBug)
	}
}

// exhaustionSignal closes done when the strategy it wraps reports its search
// space exhausted; heldUntil keeps the strategy it wraps from preparing (and
// so, under dynamic sharding, from claiming a ticket) until gate closes.
type exhaustionSignal struct {
	sct.Strategy
	done chan struct{}
}

func (s *exhaustionSignal) PrepareIteration(iter int) bool {
	ok := s.Strategy.PrepareIteration(iter)
	if !ok {
		close(s.done) // a dynamic worker stops at its first false
	}
	return ok
}

type heldUntil struct {
	sct.Strategy
	gate <-chan struct{}
}

func (s *heldUntil) PrepareIteration(iter int) bool {
	<-s.gate
	return s.Strategy.PrepareIteration(iter)
}

// TestDynamicExhaustedMemberDoesNotBurnBudget pins the ticket protocol: a
// dynamic worker whose strategy exhausts (DFS on a tiny tree) must stop
// without claiming budget, leaving its remaining iterations to the other
// workers, so the run still executes the full global budget. The random
// member is held until the DFS member has reported exhaustion — left to
// race, it drains the budget before DFS has walked its tree about once in
// 300 runs — which makes the split exact: DFS its whole tree, random the
// rest.
func TestDynamicExhaustedMemberDoesNotBurnBudget(t *testing.T) {
	// fanInSetup(2) has a 72-schedule DFS tree, well within the budget.
	const iterations, tree = 300, 72
	exhausted := make(chan struct{})
	pf, err := sct.NewPortfolio(
		sct.PortfolioMember{Name: "dfs", Strategy: &exhaustionSignal{sct.NewDFS(), exhausted}},
		sct.PortfolioMember{Name: "random", Strategy: &heldUntil{sct.NewRandom(7), exhausted}},
	)
	if err != nil {
		t.Fatal(err)
	}
	par := sct.RunParallel(fanInSetup(2), sct.ParallelOptions{
		Options:   sct.Options{Iterations: iterations, MaxSteps: 1000},
		Workers:   2,
		Portfolio: pf,
		Dynamic:   true,
	})
	if len(par.Workers) != 2 || par.Workers[0].Strategy != "dfs" || par.Workers[1].Strategy != "random" {
		t.Fatalf("portfolio workers missing: %+v", par.Workers)
	}
	dfsRep, randRep := par.Workers[0].Report, par.Workers[1].Report
	if !dfsRep.Exhausted || dfsRep.Iterations != tree {
		t.Fatalf("DFS worker ran %d iterations (exhausted=%v), want its whole %d-schedule tree; resize the program",
			dfsRep.Iterations, dfsRep.Exhausted, tree)
	}
	if randRep.Exhausted || randRep.Iterations != iterations-tree {
		t.Errorf("random worker ran %d iterations (exhausted=%v), want the %d the exhausted worker left",
			randRep.Iterations, randRep.Exhausted, iterations-tree)
	}
	if par.Iterations != iterations {
		t.Errorf("dynamic run executed %d iterations, want the full budget %d (exhausted worker must not burn tickets)",
			par.Iterations, iterations)
	}
}

// TestDynamicFindsSameBugAsStatic checks that on the existing parallel test
// program both sharding modes expose the same (kind, message) bug: dynamic
// mode changes who explores what, not what is explorable.
func TestDynamicFindsSameBugAsStatic(t *testing.T) {
	run := func(dynamic bool) sct.ParallelReport {
		return sct.RunParallel(orderingBugSetup(), sct.ParallelOptions{
			Options: sct.Options{
				Strategy:   sct.NewRandom(42),
				Iterations: 400,
				MaxSteps:   100,
			},
			Workers: 4,
			Dynamic: dynamic,
		})
	}
	static, dynamic := run(false), run(true)
	if !static.BugFound() || !dynamic.BugFound() {
		t.Fatalf("bug found: static=%v dynamic=%v", static.BugFound(), dynamic.BugFound())
	}
	if static.FirstBug.Kind != dynamic.FirstBug.Kind || static.FirstBug.Message != dynamic.FirstBug.Message {
		t.Errorf("dynamic found %v, static found %v", dynamic.FirstBug, static.FirstBug)
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
