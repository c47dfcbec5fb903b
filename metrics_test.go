package psharp_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/obs"
	"github.com/psharp-go/psharp/sct"
)

// TestCoverageRecordsDispatchedTransitions checks that a coverage set
// attached via TestConfig.Coverage accumulates the (machine, state, event)
// triples that bug-finding iterations actually dispatch: through RunTest,
// from an iteration the strategy ends by panicking, and from a closure-form
// program whose schemas are compiled per create.
func TestCoverageRecordsDispatchedTransitions(t *testing.T) {
	t.Run("dispatched", coverageOfDispatches)
	t.Run("strategy panics mid-iteration", coverageOfPanickedIteration)
	t.Run("closure form keeps its table", coverageOfClosureForm)
}

func coverageOfDispatches(t *testing.T) {
	var cov obs.StateEventCoverage
	dfs := sct.NewDFS()
	dfs.PrepareIteration(0)
	res := psharp.RunTest(func(r *psharp.Runtime) {
		r.MustRegister("Gate", func() psharp.Machine { return &coverGate{} })
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

// coverageOfPanickedIteration: the dispatches of an iteration the strategy
// ends by panicking at its k-th machine choice (panicAt) are in the set once Run
// panics, as its Runtime.Metrics are: the same triples and counts as an
// iteration the depth bound stops at that pass.
func coverageOfPanickedIteration(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommit", false)
	for _, k := range []int{2, 7, 20} {
		var got, want obs.StateEventCoverage
		s := sct.NewRandom(5)
		s.PrepareIteration(0)
		h := psharp.NewTestHarness(b.Setup)
		func() {
			defer func() {
				if r := recover(); r != (strategyPanic{k}) {
					t.Fatalf("k=%d: Run panicked with %v", k, r)
				}
			}()
			h.Run(psharp.TestConfig{Strategy: &panicAt{Strategy: s, k: k}, Coverage: &got})
		}()
		h.Close()
		s = sct.NewRandom(5)
		s.PrepareIteration(0)
		res := psharp.RunTest(b.Setup, psharp.TestConfig{Strategy: s, MaxSteps: k - 1, Coverage: &want})
		if !res.BoundReached {
			t.Fatalf("k=%d: reference iteration ended before its bound", k)
		}
		if got.Distinct() == 0 || got.Distinct() != want.Distinct() || !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
			t.Fatalf("k=%d: coverage of the panicked iteration\n%+v\nwant\n%+v", k, got.Snapshot(), want.Snapshot())
		}
	}
}

// coverageOfClosureForm: a closure-form machine's schema is compiled per
// create, and the harness counts its transitions in one block all the same:
// a thousand iterations leave the table the size the first left it.
func coverageOfClosureForm(t *testing.T) {
	var cov obs.StateEventCoverage
	h := psharp.NewTestHarness(ballotSetup())
	defer h.Close()
	s := sct.NewRandom(3)
	slots := 0
	for i := 0; i < 1000; i++ {
		s.PrepareIteration(i)
		h.Run(psharp.TestConfig{Strategy: s, MaxSteps: 1000, Coverage: &cov})
		if i == 0 {
			slots = h.CoverageSlots()
		}
	}
	if slots == 0 || h.CoverageSlots() != slots {
		t.Fatalf("coverage table: %d slots after one iteration, %d after 1000", slots, h.CoverageSlots())
	}
	want := []obs.Transition{
		{Machine: "Collector", State: "Collect", Event: "evBallot"},
		{Machine: "Voter", State: "Vote", Event: "evBallot"},
	}
	snap := cov.Snapshot()
	if len(snap) != len(want) {
		t.Fatalf("covered %+v, want %+v", snap, want)
	}
	for i, w := range want {
		if snap[i].Transition != w || snap[i].Count == 0 {
			t.Fatalf("transition[%d] = %+v, want %+v hit", i, snap[i], w)
		}
	}
}

// TestProductionRuntimeMetrics checks the always-on operational counters of
// a production-mode runtime, plus WithCoverage.
func TestProductionRuntimeMetrics(t *testing.T) {
	var cov obs.StateEventCoverage
	r := psharp.NewRuntime(psharp.WithCoverage(&cov))
	handled := make(chan struct{}, 8)
	r.MustRegister("Sink", func() psharp.Machine { return &signalSink{handled: handled} })
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

// coverGate opens on evB and then handles evA.
type coverGate struct{ psharp.StaticBase }

func (*coverGate) ConfigureType(sc *psharp.Schema) {
	sc.Start("Closed").
		OnEventGoto(&evB{}, "Open")
	sc.State("Open").
		OnEventDoM(&evA{}, func(psharp.Machine, *psharp.Context, psharp.Event) {})
}

// signalSink signals handled for each evA until evB takes it to Done.
type signalSink struct {
	psharp.StaticBase
	handled chan struct{}
}

func (*signalSink) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").
		OnEventDoM(&evA{}, func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) { m.(*signalSink).handled <- struct{}{} }).
		OnEventGoto(&evB{}, "Done")
	sc.State("Done")
}

// The program of TestHarnessMetricsFoldPerIteration: a hub creates
// hubWorkers workers and sends each one work; each worker replies twice, and
// the hub halts at its second reply. hubMonitors monitors watch. hubTally
// keeps, beside the machines, what the program counted of itself.
const hubWorkers, hubMonitors = 3, 2

type hubTally struct {
	metrics func() psharp.RuntimeMetricsSnapshot // the Runtime's
	// early is what Metrics read from inside a handler, if it was not atStart.
	early   *psharp.RuntimeMetricsSnapshot
	want    psharp.RuntimeMetricsSnapshot // running sums, kept by the program
	atStart psharp.RuntimeMetricsSnapshot // want when the iteration began
	depth   map[uint64]int64              // events sent to a machine and not yet handled
	// hubHalted says that the hub halted, so sends to it are dropped.
	hubHalted bool
}

var tallyHubID = psharp.MachineID{Type: "Hub", Seq: 1}

// send sends ev to to from ctx's machine and counts it.
func (k *hubTally) send(ctx *psharp.Context, to psharp.MachineID, ev psharp.Event) {
	k.want.MonitorDispatches += hubMonitors
	if to == tallyHubID && k.hubHalted {
		k.want.DroppedSends++
	} else {
		k.want.Sends++
		k.depth[to.Seq]++
		k.want.MailboxMax = max(k.want.MailboxMax, k.depth[to.Seq])
	}
	ctx.Send(to, ev)
}

type tallyHub struct {
	psharp.StaticBase
	k       *hubTally
	replies int
}

func (*tallyHub) ConfigureType(sc *psharp.Schema) {
	sc.Start("H").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			k := m.(*tallyHub).k
			if got := k.metrics(); got != k.atStart {
				k.early = &got
			}
			for i := 0; i < hubWorkers; i++ {
				k.want.Creates++
				w := ctx.CreateMachine("Worker", nil)
				k.send(ctx, w, &evWork{To: ctx.ID()})
			}
		}).
		OnEventDoM(&evBallot{}, func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			hub := m.(*tallyHub)
			hub.k.depth[tallyHubID.Seq]--
			if hub.replies++; hub.replies == 2 {
				// The halt drops the ballots still queued: sent, never handled.
				hub.k.want.HaltDropped += hub.k.depth[tallyHubID.Seq]
				hub.k.depth[tallyHubID.Seq] = 0
				hub.k.hubHalted = true
				ctx.Halt()
			}
		})
}

type tallyWorker struct {
	psharp.StaticBase
	k *hubTally
}

func (*tallyWorker) ConfigureType(sc *psharp.Schema) {
	sc.Start("W").OnEventDoM(&evWork{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		k := m.(*tallyWorker).k
		k.depth[ctx.ID().Seq]--
		k.send(ctx, ev.(*evWork).To, &evBallot{From: ctx.ID()})
		k.send(ctx, ev.(*evWork).To, &evBallot{From: ctx.ID()})
	})
}

// ballotWatch is a monitor that ignores ballots.
type ballotWatch struct{ psharp.StaticBase }

func (*ballotWatch) ConfigureType(sc *psharp.Schema) { sc.Start("Watching").Ignore(&evBallot{}) }

// TestHarnessMetricsHaltDropped: under a controller, a machine that halts
// with events still queued drops them, and HaltDropped counts them: every
// event Sends counts was handled or dropped by the halt. So does a crash that
// does not preserve the mailbox, whose target never handles anything.
func TestHarnessMetricsHaltDropped(t *testing.T) {
	const queued = 5
	for _, crash := range []bool{false, true} {
		handled := 0
		var rt *psharp.Runtime
		h := psharp.NewTestHarness(func(r *psharp.Runtime) {
			rt = r
			register(r, "Mortal", func(s *psharp.StateBuilder) {
				s.OnEventDoM(&evNum{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
					handled++
					ctx.Halt()
				})
			})
			id := r.MustCreate("Mortal", nil)
			for n := 0; n < queued; n++ {
				mustSend(t, r, id, &evNum{N: n})
			}
		})
		cfg := psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(1))}
		if crash {
			cfg.Strategy, cfg.Faults = &crashFirst{Random: cfg.Strategy.(*sct.Random)}, &psharp.FaultConfig{}
		}
		res := h.Run(cfg)
		h.Close()
		m := rt.Metrics()
		if res.Bug != nil || m.Sends != queued || int64(handled)+m.HaltDropped != m.Sends || crash != (handled == 0) {
			t.Fatalf("crash %v: bug %v, handled %d, metrics %+v: want %d sends, each handled or halt-dropped", crash, res.Bug, handled, m, queued)
		}
	}
}

// crashFirst is a Random strategy that crashes the first machine it may at
// the first schedule-level fault query, without a restart.
type crashFirst struct {
	*sct.Random
	done bool
}

func (s *crashFirst) Decide(c *psharp.Choice, d *psharp.Decision) {
	if c.Kind == psharp.ChoiceFault && c.Point == psharp.FaultPointSchedule && !s.done && len(c.Crashable) > 0 {
		s.done = true
		d.Kind, d.Fault = psharp.DecisionFault, psharp.FaultAction{Kind: psharp.FaultCrash, Machine: c.Crashable[0].Ref()}
		return
	}
	s.Random.Decide(c, d)
}

// TestHarnessMetricsFoldPerIteration holds Runtime.Metrics under a harness —
// where the controller counts in plain words and Run adds them to the
// runtime's atomics as it returns — to what the program itself counted:
// after every pooled iteration, one ending in a strategy panic and one
// interrupted among them, the snapshot equals the running sums over the
// iterations so far, and a snapshot taken from inside a handler does not yet
// include the iteration it runs in.
func TestHarnessMetricsFoldPerIteration(t *testing.T) {
	k := &hubTally{}
	setup := func(r *psharp.Runtime) {
		k.metrics, k.atStart, k.depth, k.hubHalted = r.Metrics, k.want, make(map[uint64]int64), false
		r.MustRegister("Hub", func() psharp.Machine { return &tallyHub{k: k} })
		r.MustRegister("Worker", func() psharp.Machine { return &tallyWorker{k: k} })
		for _, name := range [hubMonitors]string{"WatchA", "WatchB"} {
			r.MustRegisterMonitor(name, func() psharp.Machine { return &ballotWatch{} })
		}
		k.want.Creates++
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
		dropped = dropped || k.want.DroppedSends > 0
		if k.early != nil {
			t.Fatalf("iteration %d: Metrics from inside a handler = %+v, want the finished iterations' %+v", i, *k.early, k.atStart)
		}
		if got := k.metrics(); got != k.want {
			t.Fatalf("after iteration %d: Metrics = %+v, the program counted %+v", i, got, k.want)
		}
	}
	if !dropped || !panicked || !interrupted {
		t.Fatalf("the iterations did not cover a dropped send (%v), a strategy panic (%v) and an interrupt (%v)", dropped, panicked, interrupted)
	}
}

// TestProductionMailboxMaxCountsTheInbox: a machine whose entry action is
// still running is active, so what it is sent meanwhile waits in its inbox;
// MailboxMax counts it, exactly.
func TestProductionMailboxMaxCountsTheInbox(t *testing.T) {
	const n = 17
	entered, gate := make(chan struct{}), make(chan struct{})
	handled := 0
	r := psharp.NewRuntime()
	r.MustRegister("M", func() psharp.Machine {
		return &gatedEntry{entered: entered, gate: gate, handled: &handled}
	})
	id := r.MustCreate("M", nil)
	<-entered
	for i := 0; i < n; i++ {
		if err := r.SendEvent(id, &evA{}); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if m := r.Metrics(); m.MailboxMax != n || m.Sends != n || handled != n {
		t.Fatalf("metrics %+v with %d handled, want a mailbox max and %d sends, all handled", m, handled, n)
	}
}

// gatedEntry's entry action signals entered and waits for gate; then it
// counts the evA it handles.
type gatedEntry struct {
	psharp.StaticBase
	entered, gate chan struct{}
	handled       *int
}

func (*gatedEntry) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").
		OnEntryM(func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) {
			g := m.(*gatedEntry)
			close(g.entered)
			<-g.gate
		}).
		OnEventDoM(&evA{}, func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) { *m.(*gatedEntry).handled++ })
}

// TestProductionSendsUnderConcurrentSenders: Sends, counted per receiving
// machine under its mailbox lock, is what three goroutines sending at once
// delivered — to two machines, so that Metrics sums them.
func TestProductionSendsUnderConcurrentSenders(t *testing.T) {
	const senders, each = 3, 10_000
	var handled atomic.Int64
	r := psharp.NewRuntime()
	register(r, "Sink", func(s *psharp.StateBuilder) {
		s.OnEventDoM(&evA{}, func(psharp.Machine, *psharp.Context, psharp.Event) { handled.Add(1) })
	})
	ids := [2]psharp.MachineID{r.MustCreate("Sink", nil), r.MustCreate("Sink", nil)}
	var wg sync.WaitGroup
	wg.Add(senders)
	for g := 0; g < senders; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.SendEvent(ids[i%2], &evA{})
			}
		}()
	}
	wg.Wait()
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.Sends != senders*each || handled.Load() != senders*each || m.DroppedSends != 0 {
		t.Fatalf("metrics %+v, %d handled: want %d sends, all handled, none dropped", m, handled.Load(), senders*each)
	}
	if m.MailboxMax < 1 || m.MailboxMax > senders*each {
		t.Fatalf("mailbox max %d outside 1..%d", m.MailboxMax, senders*each)
	}
}
