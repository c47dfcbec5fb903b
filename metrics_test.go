package psharp_test

import (
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/obs"
	"github.com/psharp-go/psharp/sct"
)

// TestCoverageRecordsDispatchedTransitions checks that a coverage set
// attached via TestConfig.Coverage accumulates the (machine, state, event)
// triples that bug-finding iterations actually dispatch.
func TestCoverageRecordsDispatchedTransitions(t *testing.T) {
	var cov obs.StateEventCoverage
	dfs := sct.NewDFS()
	dfs.PrepareIteration(0)
	res := psharp.RunTest(func(r *psharp.Runtime) {
		r.MustRegister("Gate", func() psharp.Machine {
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("Closed").
					OnEventGoto(&evB{}, "Open")
				sc.State("Open").
					OnEventDo(&evA{}, func(ctx *psharp.Context, ev psharp.Event) {})
			})
		})
		id := r.MustCreate("Gate", nil)
		mustSend(t, r, id, &evB{})
		mustSend(t, r, id, &evA{})
	}, psharp.TestConfig{Strategy: dfs, MaxSteps: 10000, Coverage: &cov})
	if res.Bug != nil {
		t.Fatalf("bug: %v", res.Bug)
	}
	if got := cov.Distinct(); got != 2 {
		t.Fatalf("distinct transitions = %d, want 2 (%+v)", got, cov.Snapshot())
	}
	snap := cov.Snapshot()
	want := []obs.Transition{
		{Machine: "Gate", State: "Closed", Event: "evB"},
		{Machine: "Gate", State: "Open", Event: "evA"},
	}
	for i, w := range want {
		if snap[i].Transition != w {
			t.Fatalf("transition[%d] = %+v, want %+v", i, snap[i].Transition, w)
		}
		if snap[i].Count != 1 {
			t.Fatalf("transition[%d] count = %d, want 1", i, snap[i].Count)
		}
	}
}

// TestProductionRuntimeMetrics checks the always-on operational counters of
// a production-mode runtime, plus WithCoverage.
func TestProductionRuntimeMetrics(t *testing.T) {
	var cov obs.StateEventCoverage
	r := psharp.NewRuntime(psharp.WithCoverage(&cov))
	handled := make(chan struct{}, 8)
	r.MustRegister("Sink", func() psharp.Machine {
		return psharp.MachineFunc(func(sc *psharp.Schema) {
			sc.Start("S").
				OnEventDo(&evA{}, func(ctx *psharp.Context, ev psharp.Event) { handled <- struct{}{} }).
				OnEventGoto(&evB{}, "Done")
			sc.State("Done")
		})
	})
	id := r.MustCreate("Sink", nil)
	for i := 0; i < 3; i++ {
		if err := r.SendEvent(id, &evA{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
	m := r.Metrics()
	if m.Creates != 1 {
		t.Fatalf("creates = %d, want 1", m.Creates)
	}
	if m.Sends != 3 {
		t.Fatalf("sends = %d, want 3", m.Sends)
	}
	if m.MailboxMax < 1 {
		t.Fatalf("mailbox max = %d, want >= 1", m.MailboxMax)
	}
	if got := cov.Distinct(); got != 1 {
		t.Fatalf("distinct transitions = %d, want 1 (%+v)", got, cov.Snapshot())
	}
	r.Stop()
}

// TestHarnessMetricsFoldPerIteration holds Runtime.Metrics under a harness —
// where the controller counts in plain words and Run adds them to the
// runtime's atomics as it returns — to what the program itself counted:
// after every pooled iteration, one ending in a strategy panic and one
// interrupted among them, the snapshot equals the running sums over the
// iterations so far, and a snapshot taken from inside a handler does not yet
// include the iteration it runs in.
func TestHarnessMetricsFoldPerIteration(t *testing.T) {
	const workers, monitors = 3, 2
	var (
		rt        *psharp.Runtime
		want      psharp.RuntimeMetricsSnapshot // running sums, kept by the program
		atStart   psharp.RuntimeMetricsSnapshot // want when the iteration began
		depth     map[uint64]int64              // events sent to a machine and not yet handled
		hubHalted bool
	)
	hub := psharp.MachineID{Type: "Hub", Seq: 1}
	sent := func(to psharp.MachineID) {
		want.MonitorDispatches += monitors
		if to == hub && hubHalted {
			want.DroppedSends++
			return
		}
		want.Sends++
		depth[to.Seq]++
		want.MailboxMax = max(want.MailboxMax, depth[to.Seq])
	}
	send := func(ctx *psharp.Context, to psharp.MachineID, ev psharp.Event) {
		sent(to)
		ctx.Send(to, ev)
	}
	setup := func(r *psharp.Runtime) {
		rt, atStart, depth, hubHalted = r, want, make(map[uint64]int64), false
		r.MustRegister("Hub", func() psharp.Machine {
			replies := 0
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("H").
					OnEntry(func(ctx *psharp.Context, _ psharp.Event) {
						if got := rt.Metrics(); got != atStart {
							t.Errorf("Metrics from inside a handler = %+v, want the finished iterations' %+v", got, atStart)
						}
						for i := 0; i < workers; i++ {
							want.Creates++
							w := ctx.CreateMachine("Worker", nil)
							send(ctx, w, &evWork{To: ctx.ID()})
						}
					}).
					OnEventDo(&evBallot{}, func(ctx *psharp.Context, _ psharp.Event) {
						depth[hub.Seq]--
						if replies++; replies == 2 {
							hubHalted = true
							ctx.Halt()
						}
					})
			})
		})
		r.MustRegister("Worker", func() psharp.Machine {
			return psharp.StaticMachineFunc(func(sc *psharp.Schema) {
				sc.Start("W").OnEventDo(&evWork{}, func(ctx *psharp.Context, ev psharp.Event) {
					depth[ctx.ID().Seq]--
					send(ctx, ev.(*evWork).To, &evBallot{From: ctx.ID()})
					send(ctx, ev.(*evWork).To, &evBallot{From: ctx.ID()})
				})
			})
		})
		for _, name := range [monitors]string{"WatchA", "WatchB"} {
			r.MustRegisterMonitor(name, func() psharp.Machine {
				return psharp.StaticMachineFunc(func(sc *psharp.Schema) { sc.Start("Watching").Ignore(&evBallot{}) })
			})
		}
		want.Creates++
		r.MustCreate("Hub", nil)
	}

	h := psharp.NewTestHarness(setup)
	defer h.Close()
	var dropped, panicked, interrupted bool
	for i := 0; i < 12; i++ {
		cfg := psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(uint64(i) + 1))}
		switch i {
		case 4:
			cfg.Strategy = &panicAt{Strategy: mustPrepared(sct.NewRandom(5)), k: 7}
		case 8:
			polls := 0
			cfg.Interrupt = func() bool { polls++; return polls > 6 }
		}
		func() {
			defer func() { panicked = panicked || recover() != nil }()
			interrupted = h.Run(cfg).Interrupted || interrupted
		}()
		dropped = dropped || want.DroppedSends > 0
		if got := rt.Metrics(); got != want {
			t.Fatalf("after iteration %d: Metrics = %+v, the program counted %+v", i, got, want)
		}
	}
	if !dropped || !panicked || !interrupted {
		t.Fatalf("the iterations did not cover a dropped send (%v), a strategy panic (%v) and an interrupt (%v)", dropped, panicked, interrupted)
	}
}
