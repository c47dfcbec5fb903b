package sct_test

import (
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

// The tally program: a Counter and a Checker hold one tally, handed to both
// in their creation payloads. The Counter, in one handler, draws whether to
// ask the Checker to check the tally and then, keepBumps times, whether to
// bump both the tally and its own count; the Checker, blocked until asked,
// is untouched by every attempt that does not ask it — the attempts of the
// first half of the search. An attempt of the second half restored with the
// Checker kept as the last attempt left it, holding the live tally, and the
// Counter rebuilt with a copy, would have them hold two tallies.

const keepBumps = 4

type kpTally struct{ n int }

type kpBirth struct {
	psharp.EventBase
	Tally   *kpTally
	Checker psharp.MachineID
}

type kpTick struct{ psharp.EventBase }

type kpCheck struct {
	psharp.EventBase
	Want int
}

type kpCounter struct {
	psharp.StaticBase
	tally   *kpTally
	checker psharp.MachineID
	count   int
}

func (*kpCounter) ConfigureType(sc *psharp.Schema) {
	sc.Start("Count").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c, b := m.(*kpCounter), ev.(*kpBirth)
			c.tally, c.checker = b.Tally, b.Checker
			ctx.Send(ctx.ID(), &kpTick{})
		}).
		OnEventDoM(&kpTick{}, func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			c := m.(*kpCounter)
			ask := ctx.RandomBool()
			for i := 0; i < keepBumps; i++ {
				if ctx.RandomBool() {
					c.count++
					c.tally.n++
				}
			}
			if ask {
				ctx.Send(c.checker, &kpCheck{Want: c.count})
			}
		})
}

type kpChecker struct {
	psharp.StaticBase
	tally *kpTally
}

func (*kpChecker) ConfigureType(sc *psharp.Schema) {
	sc.Start("Check").
		OnEntryM(func(m psharp.Machine, _ *psharp.Context, ev psharp.Event) {
			m.(*kpChecker).tally = ev.(*kpBirth).Tally
		}).
		OnEventDoM(&kpCheck{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			n, want := m.(*kpChecker).tally.n, ev.(*kpCheck).Want
			ctx.Assert(n == want, "the tally reads %d, the counter counted %d", n, want)
		})
}

func keepSetup(r *psharp.Runtime) {
	r.MustRegister("Counter", func() psharp.Machine { return &kpCounter{} })
	r.MustRegister("Checker", func() psharp.Machine { return &kpChecker{} })
	tally := &kpTally{}
	checker := r.MustCreate("Checker", &kpBirth{Tally: tally})
	r.MustCreate("Counter", &kpBirth{Tally: tally, Checker: checker})
}

// TestKeepRuleSharedMemory: a restore keeps a machine the last attempt left
// untouched only if nothing it shares memory with is rebuilt. On the tally
// program, under dfs and under dpor+cache, the search with checkpoints is the
// search from setup attempt for attempt — the same counts after every attempt
// — and neither finds the tally ahead.
func TestKeepRuleSharedMemory(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fresh  func() sct.Strategy
		cached bool
	}{
		{"dfs", func() sct.Strategy { return sct.NewDFS() }, false},
		{"dpor+cache", func() sct.Strategy { return sct.NewDPOR() }, true},
	} {
		run := func(search func(func(*psharp.Runtime), sct.Options) sct.Report) (sct.Report, []sct.Progress) {
			var steps []sct.Progress
			rep := search(keepSetup, sct.Options{Strategy: tc.fresh(), Iterations: 500, MaxSteps: 200, StateCache: tc.cached,
				ProgressEvery: 1, Progress: func(p sct.Progress) {
					p.Elapsed = 0
					steps = append(steps, p)
				}})
			return rep, steps
		}
		live, liveSteps := run(sct.Run)
		plain, plainSteps := run(sct.RunWithoutCheckpoints)
		sameCampaign(t, tc.name, live, plain)
		if len(liveSteps) != len(plainSteps) {
			t.Fatalf("%s: %d attempts with checkpoints, %d from setup", tc.name, len(liveSteps), len(plainSteps))
		}
		for i := range liveSteps {
			if liveSteps[i] != plainSteps[i] {
				t.Fatalf("%s: after attempt %d the search with checkpoints reads %+v, from setup %+v", tc.name, i, liveSteps[i], plainSteps[i])
			}
		}
		if live.BugFound() || live.RestoredPoints == 0 || !live.Exhausted {
			t.Fatalf("%s: bug %v, %d points restored, exhausted %v", tc.name, live.FirstBug, live.RestoredPoints, live.Exhausted)
		}
	}
}
