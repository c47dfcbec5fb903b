package protocols

// Acceptance tests for the specification layer on the protocol corpus: the
// seeded FairResponder liveness bug is invisible to the plain random
// scheduler but found by RandomFair with hot-state temperature tracking,
// replays deterministically, and produces no false alarms on the correct
// variant; the Raft election-safety monitor catches the double-counted-vote
// bug as a monitor violation at the announcement send; the TwoPhaseCommit
// atomicity monitor stays silent on the benchmark (whose seeded bug is a
// safety bug of a different kind) without perturbing exploration.

import (
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

// TestLivenessBugNeedsFairScheduling is the headline acceptance check:
//
//   - plain Random (the paper's scheduler, no liveness checking — which an
//     unfair scheduler cannot soundly do) misses the seeded FairResponder
//     bug across the whole budget: nothing safety-visible ever happens;
//   - RandomFair with hot-state temperature tracking finds it, as a
//     BugLiveness attributed to the ResponseMonitor;
//   - the violation replays deterministically through sct.ReplayTrace.
func TestLivenessBugNeedsFairScheduling(t *testing.T) {
	b := MustByName("FairResponder", true)

	plain := sct.Run(b.Setup, sct.Options{
		Strategy:   sct.NewRandom(20150628),
		Iterations: 200,
		MaxSteps:   b.MaxSteps,
	})
	if plain.BugFound() {
		t.Fatalf("plain random reported %v; the seeded bug must be invisible to safety checking", plain.FirstBug)
	}

	fair := sct.Run(b.SetupMonitored(), sct.Options{
		Strategy:            sct.NewRandomFair(20150628, b.FairPrefix),
		Iterations:          200,
		MaxSteps:            b.MaxSteps,
		LivenessTemperature: b.Temperature,
		StopOnFirstBug:      true,
	})
	if !fair.BugFound() {
		t.Fatal("RandomFair with temperature tracking missed the seeded liveness bug")
	}
	bug := fair.FirstBug
	if bug.Kind != psharp.BugLiveness || bug.Monitor != "ResponseMonitor" {
		t.Fatalf("bug = %v, want BugLiveness from ResponseMonitor", bug)
	}
	t.Logf("liveness bug at iteration %d: %v", fair.FirstBugIteration, bug)

	res := sct.ReplayTrace(b.SetupMonitored(), fair.FirstBugTrace, psharp.TestConfig{
		MaxSteps:            b.MaxSteps,
		LivenessTemperature: b.Temperature,
	})
	if res.Bug == nil || res.Bug.Kind != psharp.BugLiveness || res.Bug.Message != bug.Message {
		t.Fatalf("replay did not reproduce the liveness bug: got %v, want %v", res.Bug, bug)
	}
}

// TestLivenessCorrectVariantNoFalsePositives checks the zero-false-positive
// side: the correct FairResponder always answers, and with the recommended
// threshold above the random prefix plus a few fair rounds, the monitor can
// never stay hot long enough to alarm.
func TestLivenessCorrectVariantNoFalsePositives(t *testing.T) {
	b := MustByName("FairResponder", false)
	rep := sct.Run(b.SetupMonitored(), sct.Options{
		Strategy:            sct.NewRandomFair(20150628, b.FairPrefix),
		Iterations:          300,
		MaxSteps:            b.MaxSteps,
		LivenessTemperature: b.Temperature,
	})
	if rep.BugFound() {
		t.Fatalf("correct variant reported %v at iteration %d", rep.FirstBug, rep.FirstBugIteration)
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
// portfolio with a fair member finds the liveness bug under RunParallel and
// the trace still replays.
func TestLivenessBugFoundInParallelPortfolio(t *testing.T) {
	b := MustByName("FairResponder", true)
	pf, err := sct.ParsePortfolio("random,fair", 20150628, b.MaxSteps, -1)
	if err != nil {
		t.Fatal(err)
	}
	rep := sct.RunParallel(b.SetupMonitored(), sct.ParallelOptions{
		Options: sct.Options{
			Iterations:          200,
			MaxSteps:            b.MaxSteps,
			LivenessTemperature: b.Temperature,
			StopOnFirstBug:      true,
		},
		Workers:   2,
		Portfolio: pf,
	})
	if !rep.BugFound() {
		t.Fatal("parallel portfolio with a fair member missed the liveness bug")
	}
	if rep.FirstBug.Kind != psharp.BugLiveness {
		t.Fatalf("bug = %v, want BugLiveness", rep.FirstBug)
	}
	res := sct.ReplayTrace(b.SetupMonitored(), rep.FirstBugTrace, psharp.TestConfig{
		MaxSteps:            b.MaxSteps,
		LivenessTemperature: b.Temperature,
	})
	if res.Bug == nil || res.Bug.Kind != psharp.BugLiveness {
		t.Fatalf("replay did not reproduce: got %v", res.Bug)
	}
}
