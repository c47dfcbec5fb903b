package sct_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/journal"
	"github.com/psharp-go/psharp/sct"
)

// independentSetup builds pairs of (sender, counter) machines with disjoint
// mailboxes: every step of one pair is independent of every step of the
// others, so a partial-order reducer should collapse the n!-ish interleaving
// space to a small fraction of what DFS enumerates.
func independentSetup(pairs int) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Counter", func() psharp.Machine {
			n := 0
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("Counting").
					OnEventDo(&tick{}, func(ctx *psharp.Context, ev psharp.Event) { n++ })
			})
		})
		r.MustRegister("Sender", func() psharp.Machine {
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("S").
					OnEventDo(&cfg{}, func(ctx *psharp.Context, ev psharp.Event) {
						ctx.Send(ev.(*cfg).Target, &tick{})
						ctx.Halt()
					})
			})
		})
		for i := 0; i < pairs; i++ {
			c := r.MustCreate("Counter", nil)
			s := r.MustCreate("Sender", nil)
			if err := r.SendEvent(s, &cfg{Target: c}); err != nil {
				panic(err)
			}
		}
	}
}

// orderBugSetup hides a bug behind one specific arrival order at a shared
// mailbox; sends to a common target are dependent, so DPOR must enumerate
// both orders and find it.
func orderBugSetup(r *psharp.Runtime) {
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

// TestDPORReducesIndependentInterleavings is the point of the strategy: on
// a program of mutually independent machine pairs (full DFS enumeration:
// 668,640 schedules), DPOR must exhaust the behaviors within a budget DFS
// barely dents.
func TestDPORReducesIndependentInterleavings(t *testing.T) {
	const budget = 2000
	dfs := sct.Run(independentSetup(3), sct.Options{
		Strategy: sct.NewDFS(), Iterations: budget, MaxSteps: 1000,
	})
	dpor := sct.Run(independentSetup(3), sct.Options{
		Strategy: sct.NewDPOR(), Iterations: budget, MaxSteps: 1000,
	})
	if dfs.Exhausted {
		t.Fatalf("baseline too small: DFS exhausted within %d schedules", budget)
	}
	if !dpor.Exhausted {
		t.Fatalf("DPOR did not exhaust within %d schedules: %s", budget, dpor.String())
	}
	if dpor.BugFound() {
		t.Fatalf("phantom bug: %v", dpor.FirstBug)
	}
	t.Logf("independent pairs: dpor exhausted at %d schedules; dfs not exhausted at %d",
		dpor.Iterations, dfs.Iterations)
}

// TestDPORExhaustsDependentProgram: when every send targets one mailbox,
// nothing commutes and DPOR degenerates gracefully — it still exhausts, finds
// no phantom bugs, and never explores more than DFS.
func TestDPORExhaustsDependentProgram(t *testing.T) {
	dfs := sct.Run(fanInSetup(3), sct.Options{
		Strategy: sct.NewDFS(), Iterations: 1_000_000, MaxSteps: 1000,
	})
	dpor := sct.Run(fanInSetup(3), sct.Options{
		Strategy: sct.NewDPOR(), Iterations: 1_000_000, MaxSteps: 1000,
	})
	if !dpor.Exhausted {
		t.Fatalf("DPOR did not exhaust: %s", dpor.String())
	}
	if dpor.BugFound() {
		t.Fatalf("phantom bug: %v", dpor.FirstBug)
	}
	if dpor.Iterations > dfs.Iterations {
		t.Fatalf("DPOR explored %d schedules, more than DFS's %d", dpor.Iterations, dfs.Iterations)
	}
	t.Logf("fan-in: dfs=%d dpor=%d schedules", dfs.Iterations, dpor.Iterations)
}

// TestDPORFindsOrderingBug: a bug behind one arrival order at a shared
// mailbox involves dependent sends, which DPOR must not reduce away.
func TestDPORFindsOrderingBug(t *testing.T) {
	rep := sct.Run(orderBugSetup, sct.Options{
		Strategy: sct.NewDPOR(), Iterations: 10_000, MaxSteps: 100,
		StopOnFirstBug: true,
	})
	if !rep.BugFound() {
		t.Fatalf("DPOR reduced away the ordering bug: %s", rep.String())
	}
}

// TestDPORExploresNondetChoices: controlled bool choices are enumerated
// systematically, exactly like DFS.
func TestDPORExploresNondetChoices(t *testing.T) {
	setup := func(r *psharp.Runtime) {
		r.MustRegister("Chooser", func() psharp.Machine {
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("S").OnEntry(func(ctx *psharp.Context, ev psharp.Event) {
					a, b, c := ctx.RandomBool(), ctx.RandomBool(), ctx.RandomBool()
					ctx.Assert(!(a && b && c), "the 1-in-8 combination")
				})
			})
		})
		r.MustCreate("Chooser", nil)
	}
	rep := sct.Run(setup, sct.Options{
		Strategy: sct.NewDPOR(), Iterations: 100, MaxSteps: 100,
		StopOnFirstBug: true,
	})
	if !rep.BugFound() {
		t.Fatal("DPOR must systematically reach the guarded combination")
	}
	if rep.FirstBugIteration >= 8 {
		t.Fatalf("found at iteration %d; the choice tree has only 8 leaves", rep.FirstBugIteration)
	}
}

// TestDPORDeterminism: the same configuration enumerates the same schedule
// population, run after run.
func TestDPORDeterminism(t *testing.T) {
	run := func() [4]int64 {
		rep := sct.Run(independentSetup(3), sct.Options{
			Strategy: sct.NewDPOR(), Iterations: 1_000_000, MaxSteps: 1000,
		})
		return [4]int64{
			int64(rep.Iterations), int64(rep.DistinctSchedules),
			int64(rep.MaxSchedulingPoints), rep.TotalSchedulingPoints,
		}
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("DPOR runs diverged:\n%v\n%v", a, b)
	}
}

// TestDPORReplayByteIdentical: a bug trace found under DPOR must replay to a
// byte-identical decision trace (ISSUE acceptance: reduction never breaks
// deterministic reproduction).
func TestDPORReplayByteIdentical(t *testing.T) {
	rep := sct.Run(orderBugSetup, sct.Options{
		Strategy: sct.NewDPOR(), Iterations: 10_000, MaxSteps: 100,
		StopOnFirstBug: true,
	})
	if !rep.BugFound() {
		t.Fatal("no bug to replay")
	}
	res := sct.ReplayTrace(orderBugSetup, rep.FirstBugTrace, psharp.TestConfig{MaxSteps: 100})
	if res.Bug == nil {
		t.Fatal("replay did not reproduce the bug")
	}
	var want, got bytes.Buffer
	if err := rep.FirstBugTrace.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("replayed trace is not byte-identical: %d vs %d bytes", want.Len(), got.Len())
	}
}

// TestDPORParallelShards: sharded DPOR workers jointly exhaust the space
// with no phantom or missed bugs; the root over-approximates to full
// branching, so the union covers at least the solo population.
func TestDPORParallelShards(t *testing.T) {
	solo := sct.Run(independentSetup(3), sct.Options{
		Strategy: sct.NewDPOR(), Iterations: 1_000_000, MaxSteps: 1000,
	})
	out := sct.RunParallel(independentSetup(3), sct.ParallelOptions{
		Options: sct.Options{
			Strategy: sct.NewDPOR(), Iterations: 1_000_000, MaxSteps: 1000,
		},
		Workers: 2,
	})
	if !out.Report.Exhausted {
		t.Fatalf("sharded DPOR did not exhaust: %s", out.Report.String())
	}
	if out.Report.BugFound() {
		t.Fatalf("phantom bug: %v", out.Report.FirstBug)
	}
	if out.Report.DistinctSchedules < solo.DistinctSchedules {
		t.Fatalf("sharded run covered %d distinct schedules, solo covered %d",
			out.Report.DistinctSchedules, solo.DistinctSchedules)
	}
	bug := sct.RunParallel(orderBugSetup, sct.ParallelOptions{
		Options: sct.Options{
			Strategy: sct.NewDPOR(), Iterations: 10_000, MaxSteps: 100,
			StopOnFirstBug: true,
		},
		Workers: 2,
	})
	if !bug.Report.BugFound() {
		t.Fatal("sharded DPOR missed the ordering bug")
	}
}

// TestStateCachePrunes: pairing a depth-first strategy with the state cache
// must report pruned iterations and distinct states, stay exhaustive, and
// keep pruned work out of the throughput counters.
func TestStateCachePrunes(t *testing.T) {
	plain := sct.Run(fanInSetup(3), sct.Options{
		Strategy: sct.NewDFS(), Iterations: 1_000_000, MaxSteps: 1000,
	})
	cached := sct.Run(fanInSetup(3), sct.Options{
		Strategy: sct.NewDFS(), Iterations: 1_000_000, MaxSteps: 1000,
		StateCache: true,
	})
	if !cached.Exhausted {
		t.Fatalf("cached DFS did not exhaust: %s", cached.String())
	}
	if cached.BugFound() {
		t.Fatalf("phantom bug: %v", cached.FirstBug)
	}
	if cached.PrunedIterations == 0 {
		t.Fatalf("state cache pruned nothing on a convergent fan-in: %s", cached.String())
	}
	if cached.DistinctStates == 0 {
		t.Fatal("DistinctStates not reported")
	}
	if cached.Iterations+cached.PrunedIterations > plain.Iterations {
		t.Fatalf("cached run consumed %d+%d attempts, plain DFS needed %d",
			cached.Iterations, cached.PrunedIterations, plain.Iterations)
	}
	if cached.Iterations >= plain.Iterations {
		t.Fatalf("cache pruned %d iterations yet explored %d >= plain %d",
			cached.PrunedIterations, cached.Iterations, plain.Iterations)
	}
	t.Logf("fan-in cached: %d explored + %d pruned (plain %d), %d distinct states",
		cached.Iterations, cached.PrunedIterations, plain.Iterations, cached.DistinctStates)
}

// TestStateCacheKeepsBugs: pruning must never cut the path to a bug that the
// uncached enumeration finds — neither a scheduling bug nor one guarded by
// nondeterministic choices (choices feed the state hash).
func TestStateCacheKeepsBugs(t *testing.T) {
	for _, strategy := range []string{"dfs", "dpor"} {
		s := map[string]sct.Strategy{"dfs": sct.NewDFS(), "dpor": sct.NewDPOR()}[strategy]
		rep := sct.Run(orderBugSetup, sct.Options{
			Strategy: s, Iterations: 10_000, MaxSteps: 100,
			StopOnFirstBug: true, StateCache: true,
		})
		if !rep.BugFound() {
			t.Errorf("%s+cache pruned away the ordering bug: %s", strategy, rep.String())
		}
	}
	rep := sct.Run(chancySetup, sct.Options{
		Strategy: sct.NewDFS(), Iterations: 10_000, MaxSteps: 200,
		StopOnFirstBug: true, StateCache: true,
	})
	if !rep.BugFound() {
		t.Fatalf("dfs+cache pruned away the 1-in-8 choice bug: %s", rep.String())
	}
}

// TestDPORWithStateCache: the flagship pairing — DPOR plus the cache — must
// still exhaust, with even fewer explored schedules than DPOR alone (the
// cache truncates the sleep-blocked redundant executions DPOR tolerates).
func TestDPORWithStateCache(t *testing.T) {
	plain := sct.Run(independentSetup(3), sct.Options{
		Strategy: sct.NewDPOR(), Iterations: 1_000_000, MaxSteps: 1000,
	})
	rep := sct.Run(independentSetup(3), sct.Options{
		Strategy: sct.NewDPOR(), Iterations: 1_000_000, MaxSteps: 1000,
		StateCache: true,
	})
	if !rep.Exhausted {
		t.Fatalf("DPOR+cache did not exhaust: %s", rep.String())
	}
	if rep.BugFound() {
		t.Fatalf("phantom bug: %v", rep.FirstBug)
	}
	if rep.Iterations >= plain.Iterations {
		t.Fatalf("DPOR+cache explored %d schedules, plain DPOR %d", rep.Iterations, plain.Iterations)
	}
	t.Logf("independent pairs: dpor=%d dpor+cache=%d explored, %d pruned, %d distinct states",
		plain.Iterations, rep.Iterations, rep.PrunedIterations, rep.DistinctStates)
}

// TestDPORCursorResume: a DPOR enumeration split across a journal resume
// must visit exactly the schedules of an uninterrupted enumeration
// (satellite: the DPOR cursor survives kill/resume like the DFS cursor).
func TestDPORCursorResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dpor")
	meta := journal.Meta{Benchmark: "Independent3", Strategy: "dpor", Seed: 0,
		Workers: 1, ShardCount: 1, MaxSteps: 1000}

	solo := sct.Run(independentSetup(3), sct.Options{
		Strategy: sct.NewDPOR(), Iterations: 1_000_000, MaxSteps: 1000,
	})
	if !solo.Exhausted {
		t.Fatal("baseline DPOR did not exhaust")
	}
	if solo.Iterations < 3 {
		t.Fatalf("baseline too small to split: %d iterations", solo.Iterations)
	}

	c, err := journal.Create(dir, meta, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	firstBudget := solo.Iterations / 2
	first := sct.Run(independentSetup(3), sct.Options{
		Strategy: sct.NewDPOR(), Iterations: firstBudget, MaxSteps: 1000,
		Journal: c,
	})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if first.Exhausted || first.Iterations != firstBudget {
		t.Fatalf("first slice: %s", first.String())
	}

	r, err := journal.Resume(dir, meta, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rest := sct.Run(independentSetup(3), sct.Options{
		Strategy: sct.NewDPOR(), Iterations: 1_000_000, MaxSteps: 1000,
		Journal: r,
	})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !rest.Exhausted {
		t.Fatalf("resumed DPOR did not exhaust: %s", rest.String())
	}
	if rest.Iterations != solo.Iterations {
		t.Fatalf("resumed DPOR visited %d schedules total, solo visited %d", rest.Iterations, solo.Iterations)
	}
	if rest.DistinctSchedules != solo.DistinctSchedules {
		t.Fatalf("resumed DPOR found %d distinct, solo %d", rest.DistinctSchedules, solo.DistinctSchedules)
	}
}
