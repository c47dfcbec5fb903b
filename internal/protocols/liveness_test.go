package protocols

// Acceptance tests for the specification layer on the protocol corpus: the
// seeded FairResponder liveness bug is invisible without its monitor, found
// as a fair lasso with it under random and both cached searches, replays
// deterministically, and produces no false alarms on the correct variant;
// the Raft election-safety monitor catches the double-counted-vote
// bug as a monitor violation at the announcement send; the TwoPhaseCommit
// atomicity monitor stays silent on the benchmark (whose seeded bug is a
// safety bug of a different kind) without perturbing exploration.

import (
	"strings"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

// TestLivenessBugIsAFairLasso is the headline acceptance check:
//
//   - plain random, without the monitor (the paper's scheduler), misses the
//     seeded FairResponder bug across the whole budget: nothing
//     safety-visible ever happens;
//   - with the ResponseMonitor attached, random, dfs with the state cache and
//     dpor with the state cache find it, as a BugLiveness attributed to the
//     monitor — a fair lasso, with no option set;
//   - each violation replays deterministically through sct.ReplayTrace,
//     bug for bug.
func TestLivenessBugIsAFairLasso(t *testing.T) {
	b := MustByName("FairResponder", true)

	plain := sct.Run(b.Setup, sct.Options{
		Strategy:   sct.NewRandom(1),
		Iterations: 200,
		MaxSteps:   b.MaxSteps,
	})
	if plain.BugFound() {
		t.Fatalf("plain random reported %v; the seeded bug must be invisible to safety checking", plain.FirstBug)
	}

	for _, tc := range []struct {
		name       string
		strategy   sct.Strategy
		cache      bool
		iterations int
	}{
		{"random", sct.NewRandom(1), false, 200},
		{"dfs+cache", sct.NewDFS(), true, 10000},
		{"dpor+cache", sct.NewDPOR(), true, 10000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := sct.Run(b.SetupMonitored(), sct.Options{
				Strategy:       tc.strategy,
				Iterations:     tc.iterations,
				MaxSteps:       b.MaxSteps,
				StateCache:     tc.cache,
				StopOnFirstBug: true,
			})
			if !rep.BugFound() {
				t.Fatalf("missed the seeded liveness bug in %d schedules", tc.iterations)
			}
			bug := rep.FirstBug
			if bug.Kind != psharp.BugLiveness || bug.Monitor != "ResponseMonitor" || bug.State != "AwaitingResponse" {
				t.Fatalf("bug = %+v, want BugLiveness from ResponseMonitor in AwaitingResponse", bug)
			}
			t.Logf("liveness bug at schedule %d: %v", rep.FirstBugIteration, bug)
			res := sct.ReplayTrace(b.SetupMonitored(), rep.FirstBugTrace, psharp.TestConfig{MaxSteps: b.MaxSteps})
			if res.Bug == nil || *res.Bug != *bug {
				t.Fatalf("replay did not reproduce the liveness bug: got %v, want %v", res.Bug, bug)
			}
		})
	}
}

// TestLivenessCorrectVariantNoFalsePositives checks the zero-false-positive
// side: the correct FairResponder always answers, so no cycle that keeps the
// monitor hot is fair, under every strategy in the table and under both
// searches with the state cache.
func TestLivenessCorrectVariantNoFalsePositives(t *testing.T) {
	b := MustByName("FairResponder", false)
	iterations := 300
	if testing.Short() {
		iterations = 60
	}
	for _, name := range []string{"random", "pct", "delay", "dfs", "dpor", "dfs+cache", "dpor+cache"} {
		t.Run(name, func(t *testing.T) {
			base, cache := strings.CutSuffix(name, "+cache")
			s, err := sct.NewStrategy(base, 1, b.MaxSteps)
			if err != nil {
				t.Fatal(err)
			}
			rep := sct.Run(b.SetupMonitored(), sct.Options{
				Strategy:   s,
				Iterations: iterations,
				MaxSteps:   b.MaxSteps,
				StateCache: cache,
			})
			if rep.BugFound() || rep.Err != nil {
				t.Fatalf("correct variant reported %v at schedule %d (err %v)", rep.FirstBug, rep.FirstBugIteration, rep.Err)
			}
		})
	}
}

// TestRaftElectionSafetyMonitor checks that a monitor-expressed safety
// violation on a real protocol is found and replayed: the buggy Raft's
// second leader announcement for a term fires the ElectionSafety monitor at
// the send, before the checker machine would see it.
func TestRaftElectionSafetyMonitor(t *testing.T) {
	b := MustByName("Raft", true)
	rep := sct.Run(b.SetupMonitored(), sct.Options{
		Strategy:       sct.NewRandom(20150628),
		Iterations:     2000,
		MaxSteps:       b.MaxSteps,
		StopOnFirstBug: true,
	})
	if !rep.BugFound() {
		t.Fatal("random scheduler missed the seeded Raft bug with the monitor attached")
	}
	bug := rep.FirstBug
	if bug.Kind != psharp.BugMonitor || bug.Monitor != "ElectionSafety" {
		t.Fatalf("bug = %v, want BugMonitor from ElectionSafety (the monitor observes the send first)", bug)
	}
	res := sct.ReplayTrace(b.SetupMonitored(), rep.FirstBugTrace, psharp.TestConfig{MaxSteps: b.MaxSteps})
	if res.Bug == nil || res.Bug.Kind != psharp.BugMonitor || res.Bug.Message != bug.Message {
		t.Fatalf("replay did not reproduce the monitor bug: got %v, want %v", res.Bug, bug)
	}
}

// TestMonitorsDoNotPerturbExploration checks the corpus-level
// zero-interference guarantee: attaching the TwoPhaseCommit atomicity
// monitor changes neither the schedules explored nor the bug found — the
// benchmark's seeded bug is an unhandled stale vote, which the silent
// monitor must not mask or accelerate.
func TestMonitorsDoNotPerturbExploration(t *testing.T) {
	b := MustByName("TwoPhaseCommit", true)
	run := func(setup func(*psharp.Runtime)) sct.Report {
		return sct.Run(setup, sct.Options{
			Strategy:       sct.NewRandom(20150628),
			Iterations:     500,
			MaxSteps:       b.MaxSteps,
			StopOnFirstBug: true,
		})
	}
	plain := run(b.Setup)
	monitored := run(b.SetupMonitored())
	if !plain.BugFound() || !monitored.BugFound() {
		t.Fatalf("bug found: plain=%v monitored=%v; want both", plain.BugFound(), monitored.BugFound())
	}
	if plain.FirstBugIteration != monitored.FirstBugIteration ||
		plain.FirstBug.Kind != monitored.FirstBug.Kind ||
		plain.FirstBug.Message != monitored.FirstBug.Message {
		t.Fatalf("monitor perturbed exploration:\nplain:     iteration %d, %v\nmonitored: iteration %d, %v",
			plain.FirstBugIteration, plain.FirstBug, monitored.FirstBugIteration, monitored.FirstBug)
	}
	if plain.TotalSchedulingPoints != monitored.TotalSchedulingPoints {
		t.Fatalf("scheduling points diverged: plain %d, monitored %d",
			plain.TotalSchedulingPoints, monitored.TotalSchedulingPoints)
	}
}

// TestLivenessBugFoundInParallelPortfolio checks the parallel wiring: a
// portfolio finds the liveness bug under RunParallel and the trace still
// replays.
func TestLivenessBugFoundInParallelPortfolio(t *testing.T) {
	b := MustByName("FairResponder", true)
	pf, err := sct.ParsePortfolio("random,pct", 20150628, b.MaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	rep := sct.RunParallel(b.SetupMonitored(), sct.ParallelOptions{
		Options: sct.Options{
			Iterations:     200,
			MaxSteps:       b.MaxSteps,
			StopOnFirstBug: true,
		},
		Workers:   2,
		Portfolio: pf,
	})
	if !rep.BugFound() {
		t.Fatal("parallel portfolio missed the liveness bug")
	}
	if rep.FirstBug.Kind != psharp.BugLiveness {
		t.Fatalf("bug = %v, want BugLiveness", rep.FirstBug)
	}
	res := sct.ReplayTrace(b.SetupMonitored(), rep.FirstBugTrace, psharp.TestConfig{MaxSteps: b.MaxSteps})
	if res.Bug == nil || *res.Bug != *rep.FirstBug {
		t.Fatalf("replay did not reproduce: got %v, want %v", res.Bug, rep.FirstBug)
	}
}
