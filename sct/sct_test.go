package sct_test

import (
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

// Two independent one-shot senders to a counter give a schedule tree whose
// shape is known exactly, which pins down DFS's systematic enumeration.

type tick struct{ psharp.EventBase }

type cfg struct {
	psharp.EventBase
	Target psharp.MachineID
}

func fanInSetup(senders int) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Counter", func() psharp.Machine { return &tickCounter{} })
		r.MustRegister("Sender", func() psharp.Machine { return &tickSender{} })
		counter := r.MustCreate("Counter", nil)
		for i := 0; i < senders; i++ {
			s := r.MustCreate("Sender", nil)
			if err := r.SendEvent(s, &cfg{Target: counter}); err != nil {
				panic(err)
			}
		}
	}
}

// tickCounter counts the ticks it receives.
type tickCounter struct {
	psharp.StaticBase
	n int
}

func (*tickCounter) ConfigureType(sc *psharp.Schema) {
	sc.Start("Counting").
		OnEventDoM(&tick{}, func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) { m.(*tickCounter).n++ })
}

// tickSender sends one tick to the target its cfg names, and halts.
type tickSender struct{ psharp.StaticBase }

func (*tickSender) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").
		OnEventDoM(&cfg{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ctx.Send(ev.(*cfg).Target, &tick{})
			ctx.Halt()
		})
}

// TestDFSExhaustsAndTerminates checks that DFS visits the whole schedule
// tree and then stops, and that every iteration is bug-free.
func TestDFSExhaustsAndTerminates(t *testing.T) {
	rep := sct.Run(fanInSetup(3), sct.Options{
		Strategy:   sct.NewDFS(),
		Iterations: 1_000_000,
		MaxSteps:   1000,
	})
	if !rep.Exhausted {
		t.Fatalf("DFS did not exhaust: %s", rep.String())
	}
	if rep.BugFound() {
		t.Fatalf("unexpected bug: %v", rep.FirstBug)
	}
	if rep.Iterations < 3 {
		t.Fatalf("suspiciously few schedules: %d", rep.Iterations)
	}
	t.Logf("3-sender fan-in: %d schedules", rep.Iterations)
}

// TestDFSExploresNondetChoices checks that controlled boolean choices are
// enumerated systematically: a bug guarded by three specific coin flips is
// found within the full enumeration.
func TestDFSExploresNondetChoices(t *testing.T) {
	setup := func(r *psharp.Runtime) {
		r.MustRegister("Chooser", func() psharp.Machine { return &chancy{} })
		r.MustCreate("Chooser", nil)
	}
	rep := sct.Run(setup, sct.Options{
		Strategy:       sct.NewDFS(),
		Iterations:     100,
		MaxSteps:       100,
		StopOnFirstBug: true,
	})
	if !rep.BugFound() {
		t.Fatal("DFS must systematically reach the guarded combination")
	}
	if rep.FirstBugIteration >= 8 {
		t.Fatalf("found at iteration %d; the choice tree has only 8 leaves", rep.FirstBugIteration)
	}
}

// TestRandomSeedDeterminism checks that the same seed reproduces the same
// exploration outcome.
func TestRandomSeedDeterminism(t *testing.T) {
	setup := fanInSetup(3)
	run := func() [4]int64 {
		rep := sct.Run(setup, sct.Options{
			Strategy:   sct.NewRandom(1234),
			Iterations: 50,
			MaxSteps:   1000,
		})
		return [4]int64{
			int64(rep.Iterations), int64(rep.BuggyIterations),
			int64(rep.MaxSchedulingPoints), rep.TotalSchedulingPoints,
		}
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
}

// TestStrategiesFindSeededChoiceBug cross-checks all randomized strategies
// on a bug requiring one specific machine ordering.
func TestStrategiesFindSeededChoiceBug(t *testing.T) {
	// Two senders; the counter asserts a specific arrival order chosen to
	// fail only in some interleavings.
	setup := orderBugSetup
	strategies := map[string]sct.Strategy{
		"random": sct.NewRandom(3),
		"pct":    sct.NewPCT(3, 3, 20),
		"delay":  sct.NewDelayBounding(3, 2, 20),
		"dfs":    sct.NewDFS(),
	}
	for name, s := range strategies {
		rep := sct.Run(setup, sct.Options{
			Strategy:       s,
			Iterations:     500,
			MaxSteps:       100,
			StopOnFirstBug: true,
		})
		if !rep.BugFound() {
			t.Errorf("%s missed the ordering bug in %d schedules", name, rep.Iterations)
		}
	}
}

// TestReplayDivergenceDetected checks that replaying a trace against a
// different program panics with a divergence error rather than silently
// producing garbage.
func TestReplayDivergenceDetected(t *testing.T) {
	rep := sct.Run(fanInSetup(2), sct.Options{
		Strategy:   sct.NewRandom(9),
		Iterations: 1,
		MaxSteps:   1000,
	})
	_ = rep
	one := sct.NewRandom(9)
	one.PrepareIteration(0)
	res := psharp.RunTest(fanInSetup(2), psharp.TestConfig{Strategy: one, MaxSteps: 1000})

	defer func() {
		if recover() == nil {
			t.Fatal("want a divergence panic when replaying against a different program")
		}
	}()
	// Replaying the 2-sender trace against a 3-sender program must diverge.
	sct.ReplayTrace(fanInSetup(3), res.Trace, psharp.TestConfig{MaxSteps: 1000})
}
