package sct_test

import (
	"bytes"
	"testing"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

// The corpus-wide soundness harness for the reduction stack. The sound
// claim DPOR+cache makes is relative to the enumeration it prunes: within
// an equal budget it must find every bug DFS finds (the reduction only
// collapses commuting interleavings and truncates revisited states, it
// never discards a behavior). Against random search the paper's own Table 2
// applies — systematic depth-first exploration misses deep bugs random
// stumbles into (Raft, BasicPaxos, German) — so superiority over random is
// asserted only on the gated subset where depth-first search is viable
// (TestDPORCorpusBeatsRandom: at most half of random's schedules).

const corpusBudget = 2000

func corpusRun(b protocols.Benchmark, s sct.Strategy, cache bool, budget int) sct.Report {
	return sct.Run(b.SetupMonitored(), sct.Options{
		Strategy:       s,
		Iterations:     budget,
		MaxSteps:       b.MaxSteps,
		LivelockAsBug:  b.LivelockAsBug,
		StopOnFirstBug: true,
		StateCache:     cache,
		Timeout:        30 * time.Second,
	})
}

// corpusRunFromSetup is corpusRun with checkpoints off: every attempt
// executes its whole schedule from setup.
func corpusRunFromSetup(b protocols.Benchmark, s sct.Strategy, cache bool, budget int) sct.Report {
	return sct.RunWithoutCheckpoints(b.SetupMonitored(), sct.Options{
		Strategy:       s,
		Iterations:     budget,
		MaxSteps:       b.MaxSteps,
		LivelockAsBug:  b.LivelockAsBug,
		StopOnFirstBug: true,
		StateCache:     cache,
		Timeout:        30 * time.Second,
	})
}

// sameCampaign requires two reports to describe one campaign: every count
// that is a function of the schedules explored, the bug and its trace. Only
// RestoredPoints (and the clock) may tell a search that starts its attempts
// from checkpoints from one that runs them from setup.
func sameCampaign(t *testing.T, what string, got, want sct.Report) {
	t.Helper()
	type counts struct {
		iterations, distinct, buggy, maxSP, maxMachines, bound, pruned, states int
		points, prunedPoints, replayed, continued                              int64
		exhausted                                                              bool
		bugAt                                                                  int
		bug, trace                                                             string
	}
	of := func(r sct.Report) counts {
		c := counts{r.Iterations, r.DistinctSchedules, r.BuggyIterations, r.MaxSchedulingPoints, r.MaxMachines,
			r.BoundReached, r.PrunedIterations, r.DistinctStates, r.TotalSchedulingPoints, r.PrunedPoints,
			r.ReplayedPoints, r.ContinuedPoints, r.Exhausted, r.FirstBugIteration, "", ""}
		if r.FirstBug != nil {
			var enc bytes.Buffer
			if err := r.FirstBugTrace.Encode(&enc); err != nil {
				t.Fatal(err)
			}
			c.bug, c.trace = r.FirstBug.Error(), enc.String()
		}
		return c
	}
	if g, w := of(got), of(want); g != w {
		g.trace, w.trace = "", ""
		t.Errorf("%s: with checkpoints %+v, from setup %+v (traces equal: %v)", what, g, w, g == w)
	}
	if want.RestoredPoints != 0 {
		t.Errorf("%s: the search from setup restored %d points", what, want.RestoredPoints)
	}
}

// TestDPORCorpusDFSParity: on every buggy Table 2 benchmark, DPOR+cache
// must find a bug whenever equal-budget DFS does — pruning never loses a
// bug the unreduced enumeration reaches — and every bug it finds must
// replay byte-identically. Both searches are run twice, as shipped and with
// checkpoints off, and must be the same campaign either way.
func TestDPORCorpusDFSParity(t *testing.T) {
	var restored int64
	for _, name := range protocols.Names() {
		b, ok := protocols.ByName(name, true)
		if !ok {
			continue
		}
		dfs := corpusRun(b, sct.NewDFS(), false, corpusBudget)
		dpor := corpusRun(b, sct.NewDPOR(), true, corpusBudget)
		sameCampaign(t, name+" under dfs", dfs, corpusRunFromSetup(b, sct.NewDFS(), false, corpusBudget))
		sameCampaign(t, name+" under dpor+cache", dpor, corpusRunFromSetup(b, sct.NewDPOR(), true, corpusBudget))
		restored += dfs.RestoredPoints + dpor.RestoredPoints
		if dfs.BugFound() && !dpor.BugFound() {
			t.Errorf("%s: DFS found a bug at iteration %d but DPOR+cache missed it (%d explored, %d pruned)",
				name, dfs.FirstBugIteration, dpor.Iterations, dpor.PrunedIterations)
			continue
		}
		if dpor.BugFound() {
			verifyCorpusReplay(t, name, b, dpor)
		}
		t.Logf("%-18s dfs=%v dpor+cache=%v (%d explored, %d pruned)",
			name, dfs.BugFound(), dpor.BugFound(), dpor.Iterations, dpor.PrunedIterations)
	}
	if restored == 0 {
		t.Error("no search of the corpus started an attempt from a checkpoint")
	}
}

// TestDPORCorpusDeepHunt is the one hunt of the corpus only the reductions
// make possible: DPOR+cache finds the BoundedAsync bug at attempt 1 237 —
// plain DFS has not after 4 000 — with checkpoints and without, and the
// trace replays byte for byte.
func TestDPORCorpusDeepHunt(t *testing.T) {
	b := protocols.MustByName("BoundedAsync", true)
	hunt := func(run func(func(*psharp.Runtime), sct.Options) sct.Report) sct.Report {
		return run(b.Setup, sct.Options{Strategy: sct.NewDPOR(), Iterations: 2000, MaxSteps: b.MaxSteps,
			LivelockAsBug: b.LivelockAsBug, StopOnFirstBug: true, StateCache: true})
	}
	rep := hunt(sct.Run)
	if !rep.BugFound() || rep.Iterations+rep.PrunedIterations != 1237 {
		t.Fatalf("the hunt ended after %d attempts, want the bug at attempt 1237: %s",
			rep.Iterations+rep.PrunedIterations, rep.String())
	}
	if rep.RestoredPoints == 0 {
		t.Errorf("1237 attempts and none started from a checkpoint: %s", rep.String())
	}
	sameCampaign(t, "the BoundedAsync hunt", rep, hunt(sct.RunWithoutCheckpoints))
	res := sct.ReplayTrace(b.Setup, rep.FirstBugTrace, psharp.TestConfig{MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug})
	var want, got bytes.Buffer
	if err := rep.FirstBugTrace.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if res.Bug == nil || res.Bug.Error() != rep.FirstBug.Error() || !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("replay found %v through a trace equal to the hunt's: %v; the hunt found %v",
			res.Bug, bytes.Equal(want.Bytes(), got.Bytes()), rep.FirstBug)
	}
}

// TestDPORCorpusBeatsRandom: the gated subset — benchmarks whose seeded
// bugs depth-first search reaches — where DPOR+cache must find every bug
// random finds, exploring at most half the schedules random needed: the
// reduction's reason to exist.
func TestDPORCorpusBeatsRandom(t *testing.T) {
	cases := []struct {
		name   string
		budget int
	}{
		{"TwoPhaseCommit", 4000}, // ~3.5k attempts are pruned before the bug branch
		{"Chord", corpusBudget},
	}
	for _, tc := range cases {
		b := protocols.MustByName(tc.name, true)
		rnd := corpusRun(b, sct.NewRandom(1), false, tc.budget)
		if !rnd.BugFound() {
			t.Errorf("%s: random baseline missed the seeded bug in %d schedules", tc.name, rnd.Iterations)
			continue
		}
		dpor := corpusRun(b, sct.NewDPOR(), true, tc.budget)
		if !dpor.BugFound() {
			t.Errorf("%s: random found the bug after %d schedules but DPOR+cache missed it (%d explored, %d pruned)",
				tc.name, rnd.FirstBugIteration+1, dpor.Iterations, dpor.PrunedIterations)
			continue
		}
		if 2*dpor.Iterations > rnd.FirstBugIteration+1 {
			t.Errorf("%s: DPOR+cache explored %d schedules to the bug, more than half of the %d random needed",
				tc.name, dpor.Iterations, rnd.FirstBugIteration+1)
		}
		verifyCorpusReplay(t, tc.name, b, dpor)
		t.Logf("%-18s random=%d schedules, dpor+cache=%d explored (+%d pruned)",
			tc.name, rnd.FirstBugIteration+1, dpor.Iterations, dpor.PrunedIterations)
	}
}

// TestDPORCorpusLiveness: the FairResponder liveness bug (a monitor stuck
// hot past the temperature threshold) must be reachable under DPOR+cache —
// the monitor temperature is part of the hashed state, so the cache cannot
// prune a schedule before its temperature crossing.
func TestDPORCorpusLiveness(t *testing.T) {
	b := protocols.MustByName("FairResponder", true)
	opts := sct.Options{
		Iterations:          corpusBudget,
		MaxSteps:            b.MaxSteps,
		LivenessTemperature: b.Temperature,
		StopOnFirstBug:      true,
		Timeout:             30 * time.Second,
	}
	rnd := opts
	rnd.Strategy = sct.NewRandom(1)
	random := sct.Run(b.SetupMonitored(), rnd)
	if !random.BugFound() {
		t.Fatalf("random baseline missed the liveness bug in %d schedules", random.Iterations)
	}
	dp := opts
	dp.Strategy = sct.NewDPOR()
	dp.StateCache = true
	dpor := sct.Run(b.SetupMonitored(), dp)
	if !dpor.BugFound() {
		t.Fatalf("DPOR+cache missed the liveness bug (%d explored, %d pruned)",
			dpor.Iterations, dpor.PrunedIterations)
	}
	if dpor.FirstBug.Kind != psharp.BugLiveness {
		t.Fatalf("expected a liveness bug, got %v", dpor.FirstBug)
	}
}

// TestDPORCorpusFaultNegative: TwoPhaseCommitFT's seeded bug needs a crash
// to manifest; with fault injection off (DPOR supports nothing else),
// neither random nor DPOR+cache may report one. A phantom find here would
// mean the reduction or the hashing corrupted execution.
func TestDPORCorpusFaultNegative(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommitFT", true)
	rnd := corpusRun(b, sct.NewRandom(1), false, 500)
	if rnd.BugFound() {
		t.Fatalf("random found a fault-gated bug without faults: %v", rnd.FirstBug)
	}
	dpor := corpusRun(b, sct.NewDPOR(), true, 500)
	if dpor.BugFound() {
		t.Fatalf("DPOR+cache found a fault-gated bug without faults: %v", dpor.FirstBug)
	}
}

// TestStateCacheParallelSkipsReplayedPrefix: two DPOR workers sharing one
// state cache, each skipping the hash and the Visit on the prefix its own
// previous attempt replayed, still find the gated corpus's bugs, and the
// traces replay. A worker can no longer be pruned inside its own replay by
// the other's theft of a state — "replay must reach the frontier" — so the
// run must also be race-clean with the memo live (CI runs it under -race).
func TestStateCacheParallelSkipsReplayedPrefix(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
	}{
		{"TwoPhaseCommit", 8000}, // two shards of the ~3.5k pruned attempts before the bug branch
		{"Chord", corpusBudget},  // found by a worker's first attempt: nothing to replay yet
	} {
		name := tc.name
		b := protocols.MustByName(name, true)
		out := sct.RunParallel(b.SetupMonitored(), sct.ParallelOptions{
			Options: sct.Options{
				Strategy:       sct.NewDPOR(),
				Iterations:     tc.budget,
				MaxSteps:       b.MaxSteps,
				LivelockAsBug:  b.LivelockAsBug,
				StopOnFirstBug: true,
				StateCache:     true,
				Timeout:        30 * time.Second,
			},
			Workers: 2,
		})
		rep := out.Report
		if !rep.BugFound() {
			t.Errorf("%s: two DPOR+cache workers missed the seeded bug: %s", name, rep.String())
			continue
		}
		verifyCorpusReplay(t, name, b, rep)
		if rep.PrunedIterations > 0 && (rep.ReplayedPoints == 0 || rep.PrunedPoints == 0) {
			t.Errorf("%s: the replay memo never engaged: %s", name, rep.String())
		}
		var replayed, pruned int64
		for _, w := range out.Workers {
			replayed += w.Report.ReplayedPoints
			pruned += w.Report.PrunedPoints
		}
		if replayed != rep.ReplayedPoints || pruned != rep.PrunedPoints {
			t.Errorf("%s: merged report says %d replayed / %d pruned points, the workers sum to %d / %d",
				name, rep.ReplayedPoints, rep.PrunedPoints, replayed, pruned)
		}
	}
}

// TestStateCacheReportsWhatItExecuted: TotalSchedulingPoints leaves the
// pruned attempts out, so PrunedPoints and ReplayedPoints have to say what
// a reduced campaign really ran — and that most of it was prefix replay.
func TestStateCacheReportsWhatItExecuted(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommit", false)
	opts := sct.Options{Strategy: sct.NewDPOR(), Iterations: 300, MaxSteps: b.MaxSteps, StateCache: true}
	tel := sct.NewTelemetry(time.Second)
	opts.Telemetry = tel
	rep := sct.Run(b.Setup, opts)
	if rep.PrunedIterations == 0 || rep.PrunedPoints < int64(rep.PrunedIterations) {
		t.Fatalf("pruned attempts executed nothing: %s", rep.String())
	}
	executed := rep.TotalSchedulingPoints + rep.PrunedPoints
	if rep.ReplayedPoints <= 0 || rep.ReplayedPoints >= executed {
		t.Fatalf("%d replayed points of %d executed", rep.ReplayedPoints, executed)
	}
	if share := rep.ReplayedShare(); share < 0.5 {
		t.Fatalf("replayed share %.2f: a DPOR+cache search of TwoPhaseCommit is mostly prefix replay", share)
	}
	c := sct.NewCampaign(sct.CampaignConfig{Strategy: "dpor", StateCache: true}, &rep, nil, tel)
	if c.Result.PrunedPoints != rep.PrunedPoints || c.Result.ReplayedPoints != rep.ReplayedPoints ||
		c.Telemetry.PrunedPoints != rep.PrunedPoints || c.Telemetry.ReplayedPoints != rep.ReplayedPoints {
		t.Fatalf("campaign report %d/%d and telemetry %d/%d disagree with the run's %d pruned / %d replayed points",
			c.Result.PrunedPoints, c.Result.ReplayedPoints, c.Telemetry.PrunedPoints, c.Telemetry.ReplayedPoints,
			rep.PrunedPoints, rep.ReplayedPoints)
	}
	plain := sct.Run(b.Setup, sct.Options{Strategy: sct.NewDFS(), Iterations: 50, MaxSteps: b.MaxSteps})
	if plain.ReplayedPoints != 0 || plain.PrunedPoints != 0 {
		t.Fatalf("a run without a cache reports %d replayed / %d pruned points", plain.ReplayedPoints, plain.PrunedPoints)
	}
}

// verifyCorpusReplay checks a DPOR-found bug trace replays byte-identically.
func verifyCorpusReplay(t *testing.T, name string, b protocols.Benchmark, rep sct.Report) {
	t.Helper()
	res := sct.ReplayTrace(b.SetupMonitored(), rep.FirstBugTrace, psharp.TestConfig{
		MaxSteps:      b.MaxSteps,
		LivelockAsBug: b.LivelockAsBug,
	})
	if res.Bug == nil {
		t.Errorf("%s: DPOR bug trace did not replay", name)
		return
	}
	var want, got bytes.Buffer
	if err := rep.FirstBugTrace.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("%s: replayed trace is not byte-identical", name)
	}
}
