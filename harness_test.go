package psharp_test

// Tests for the reusable TestHarness: behavioural equivalence with one-shot
// RunTest across many recycled iterations, and the allocation-regression
// caps that keep the exploration hot path near zero allocations.

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

type evSpin struct {
	psharp.EventBase
	Left int
}

type evBallot struct {
	psharp.EventBase
	From psharp.MachineID
}

// spinSetup builds a single machine that bounces one preallocated event to
// itself n times and halts. The program itself allocates nothing per step,
// so it isolates the runtime's own per-scheduling-point allocations. The
// bouncer keeps its state in the event and is a zero-size static type: its
// schema is compiled once per process and its logic value costs nothing.
func spinSetup(n int) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Spinner", func() psharp.Machine { return &bouncer{} })
		id := r.MustCreate("Spinner", nil)
		if err := r.SendEvent(id, &evSpin{Left: n}); err != nil {
			panic(err)
		}
	}
}

// bouncer sends each evSpin back to itself until its count runs out.
type bouncer struct{ psharp.StaticBase }

func (*bouncer) ConfigureType(sc *psharp.Schema) {
	sc.Start("Spin").
		OnEventDoM(&evSpin{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			e := ev.(*evSpin)
			if e.Left == 0 {
				ctx.Halt()
				return
			}
			e.Left--
			ctx.Send(ctx.ID(), e)
		})
}

// ballotSetup builds an interleaving- and choice-sensitive program: voters
// race their ballots to a collector, which asserts creation-order arrival,
// and each voter flips a controlled coin that decides whether it halts or
// re-sends. It exercises sends, creates, blocking, halting, deferred
// controlled choices, and both buggy and clean schedules. Its machines are in
// the closure form, which only the declaration-form equivalence test uses;
// staticBallotSetup is the same program in the static form.
func ballotSetup() func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Collector", func() psharp.Machine {
			var first psharp.MachineID
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("Collect").
					OnEventDo(&evBallot{}, func(ctx *psharp.Context, ev psharp.Event) {
						from := ev.(*evBallot).From
						if first.IsNil() {
							first = from
							return
						}
						ctx.Assert(first.Seq < from.Seq, "ballots arrived out of creation order")
					})
			})
		})
		r.MustRegister("Voter", func() psharp.Machine {
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("Vote").
					OnEventDo(&evBallot{}, func(ctx *psharp.Context, ev psharp.Event) {
						target := ev.(*evBallot).From
						ctx.Send(target, &evBallot{From: ctx.ID()})
						if ctx.RandomBool() || ctx.RandomInt(3) == 0 {
							ctx.Halt()
						}
					})
			})
		})
		collector := r.MustCreate("Collector", nil)
		for i := 0; i < 3; i++ {
			v := r.MustCreate("Voter", nil)
			if err := r.SendEvent(v, &evBallot{From: collector}); err != nil {
				panic(err)
			}
		}
	}
}

// Static twins of ballotSetup's machines, identical to the closure form
// line for line except that the instance arrives as a parameter. Used by
// the declaration-form equivalence test.

type sbCollector struct {
	psharp.StaticBase
	first psharp.MachineID
}

func (*sbCollector) ConfigureType(sc *psharp.Schema) {
	sc.Start("Collect").
		OnEventDoM(&evBallot{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*sbCollector)
			from := ev.(*evBallot).From
			if c.first.IsNil() {
				c.first = from
				return
			}
			ctx.Assert(c.first.Seq < from.Seq, "ballots arrived out of creation order")
		})
}

type sbVoter struct{ psharp.StaticBase }

func (*sbVoter) ConfigureType(sc *psharp.Schema) {
	sc.Start("Vote").
		OnEventDoM(&evBallot{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			target := ev.(*evBallot).From
			ctx.Send(target, &evBallot{From: ctx.ID()})
			if ctx.RandomBool() || ctx.RandomInt(3) == 0 {
				ctx.Halt()
			}
		})
}

// staticBallotSetup is ballotSetup with the machines in static form.
func staticBallotSetup() func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Collector", func() psharp.Machine { return &sbCollector{} })
		r.MustRegister("Voter", func() psharp.Machine { return &sbVoter{} })
		collector := r.MustCreate("Collector", nil)
		for i := 0; i < 3; i++ {
			v := r.MustCreate("Voter", nil)
			if err := r.SendEvent(v, &evBallot{From: collector}); err != nil {
				panic(err)
			}
		}
	}
}

func encodeTrace(t *testing.T, tr *psharp.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestHarnessMatchesRunTest checks that a recycled harness behaves exactly
// like a fresh one-shot RunTest on every iteration: same bug, same counts,
// and byte-identical traces — i.e. recycling leaks no state between runs.
func TestHarnessMatchesRunTest(t *testing.T) {
	setup := staticBallotSetup()
	h := psharp.NewTestHarness(setup)
	defer h.Close()
	sawBug, sawClean := false, false
	for i := 0; i < 25; i++ {
		seed := uint64(i) + 1
		pooled := h.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(seed)), MaxSteps: 500})
		oneshot := psharp.RunTest(setup, psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(seed)), MaxSteps: 500})
		if (pooled.Bug == nil) != (oneshot.Bug == nil) {
			t.Fatalf("seed %d: pooled bug %v, one-shot bug %v", seed, pooled.Bug, oneshot.Bug)
		}
		if pooled.Bug != nil {
			sawBug = true
			if pooled.Bug.Kind != oneshot.Bug.Kind || pooled.Bug.Message != oneshot.Bug.Message {
				t.Fatalf("seed %d: pooled bug %v, one-shot bug %v", seed, pooled.Bug, oneshot.Bug)
			}
		} else {
			sawClean = true
		}
		if pooled.SchedulingPoints != oneshot.SchedulingPoints || pooled.Machines != oneshot.Machines {
			t.Fatalf("seed %d: pooled (SP=%d, M=%d), one-shot (SP=%d, M=%d)", seed,
				pooled.SchedulingPoints, pooled.Machines, oneshot.SchedulingPoints, oneshot.Machines)
		}
		if a, b := encodeTrace(t, pooled.Trace), encodeTrace(t, oneshot.Trace); a != b {
			t.Fatalf("seed %d: traces diverge:\npooled:\n%s\none-shot:\n%s", seed, a, b)
		}
	}
	if !sawBug || !sawClean {
		t.Fatalf("test program not exercising both outcomes (bug=%v clean=%v); strengthen the setup", sawBug, sawClean)
	}
}

// TestDeclarationFormsEquivalent checks that the static and closure
// declaration forms of the same machine are behaviorally indistinguishable
// across recycled harness iterations: same bug (or none), same counts, and
// byte-identical traces for every seed — while only the static harness
// gets to reuse compiled schemas.
func TestDeclarationFormsEquivalent(t *testing.T) {
	hStatic := psharp.NewTestHarness(staticBallotSetup())
	defer hStatic.Close()
	hClosure := psharp.NewTestHarness(ballotSetup())
	defer hClosure.Close()
	sawBug, sawClean := false, false
	for i := 0; i < 25; i++ {
		seed := uint64(i) + 1
		static := hStatic.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(seed)), MaxSteps: 500})
		closure := hClosure.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(seed)), MaxSteps: 500})
		if (static.Bug == nil) != (closure.Bug == nil) {
			t.Fatalf("seed %d: static bug %v, closure bug %v", seed, static.Bug, closure.Bug)
		}
		if static.Bug != nil {
			sawBug = true
			if static.Bug.Kind != closure.Bug.Kind || static.Bug.Message != closure.Bug.Message {
				t.Fatalf("seed %d: static bug %v, closure bug %v", seed, static.Bug, closure.Bug)
			}
		} else {
			sawClean = true
		}
		if static.SchedulingPoints != closure.SchedulingPoints || static.Machines != closure.Machines {
			t.Fatalf("seed %d: static (SP=%d, M=%d), closure (SP=%d, M=%d)", seed,
				static.SchedulingPoints, static.Machines, closure.SchedulingPoints, closure.Machines)
		}
		if a, b := encodeTrace(t, static.Trace), encodeTrace(t, closure.Trace); a != b {
			t.Fatalf("seed %d: traces diverge:\nstatic:\n%s\nclosure:\n%s", seed, a, b)
		}
	}
	if !sawBug || !sawClean {
		t.Fatalf("test program not exercising both outcomes (bug=%v clean=%v); strengthen the setup", sawBug, sawClean)
	}
	// The static harness compiled at most one schema per type (none if an
	// earlier harness of the process did); the closure harness compiled one
	// per machine instance per iteration.
	if got := hStatic.SchemaCompiles(); got > 2 {
		t.Errorf("static harness schema compiles = %d, want at most 2", got)
	}
	if got := hClosure.SchemaCompiles(); got < 25*4 {
		t.Errorf("closure harness schema compiles = %d, want >= %d (one per instance per iteration)", got, 25*4)
	}
}

// harnessAllocs measures steady-state allocations per iteration through a
// warmed-up harness, and returns the scheduling points of one iteration.
func harnessAllocs(t *testing.T, rounds int) (allocs float64, sp int) {
	t.Helper()
	h := psharp.NewTestHarness(spinSetup(rounds))
	defer h.Close()
	strategy := sct.NewRandom(1)
	cfg := psharp.TestConfig{Strategy: strategy, MaxSteps: 0}
	for i := 0; i < 5; i++ { // warm the pools and grow every buffer
		strategy.PrepareIteration(i)
		sp = h.Run(cfg).SchedulingPoints
	}
	iter := 5
	allocs = testing.AllocsPerRun(100, func() {
		strategy.PrepareIteration(iter)
		iter++
		h.Run(cfg)
	})
	return allocs, sp
}

// TestHarnessAllocationCaps is the allocation-regression test: it asserts a
// hard cap on steady-state allocations per iteration through the reusable
// harness, and a near-zero cap on the marginal allocations per scheduling
// point (the ready-list scheduler and recycled buffers make extra steps
// free; only per-machine setup work remains).
func TestHarnessAllocationCaps(t *testing.T) {
	allocsShort, spShort := harnessRound(t, 32)
	allocsLong, spLong := harnessRound(t, 512)

	// Per-iteration budget: with the spinner's schema compiled once per
	// harness (static declaration) and every buffer recycled, an iteration
	// costs a couple of allocations of setup wiring. The seed's RunTest
	// needed hundreds for the same program and the pre-cache harness ~8;
	// even one machine's schema rebuild (builder, state table, handler
	// slice, frozen form) blows this cap, so schema work cannot silently
	// return to the per-iteration path.
	const perIterationCap = 6
	if allocsShort > perIterationCap {
		t.Errorf("steady-state allocations per iteration = %.1f, want <= %d", allocsShort, perIterationCap)
	}

	// Marginal cost of a scheduling point: with the ready list, trace
	// buffer, and queue slices recycled, extra steps must not allocate.
	perSP := (allocsLong - allocsShort) / float64(spLong-spShort)
	if perSP > 0.05 {
		t.Errorf("marginal allocations per scheduling point = %.4f (%.1f -> %.1f allocs for %d -> %d SPs), want <= 0.05",
			perSP, allocsShort, allocsLong, spShort, spLong)
	}
}

func harnessRound(t *testing.T, rounds int) (float64, int) {
	allocs, sp := harnessAllocs(t, rounds)
	if sp < rounds {
		t.Fatalf("spin program with %d rounds took only %d scheduling points", rounds, sp)
	}
	return allocs, sp
}

// TestProtocolAllocationCap locks in the steady state of a real protocol
// workload: TwoPhaseCommit creates six machines of five static types per
// iteration, and the pooled harness measures 67 allocs/iteration, all but a
// handful of them the protocol's own (events, logic values). It was 163.8
// when every create rebuilt its machine's schema, and 68 while teardown
// unwound the machines blocked between handlers by panic (the recovery
// allocates; they return out of run now). The cap leaves room for a change
// of schedule mix, not for a schema rebuild or an allocation per machine.
func TestProtocolAllocationCap(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommit", true)
	h := psharp.NewTestHarness(b.Setup)
	defer h.Close()
	strategy := sct.NewRandom(1)
	cfg := psharp.TestConfig{Strategy: strategy, MaxSteps: b.MaxSteps}
	iter := 0
	for ; iter < 5; iter++ { // warm the pools and grow every buffer
		strategy.PrepareIteration(iter)
		h.Run(cfg)
	}
	allocs := testing.AllocsPerRun(100, func() {
		strategy.PrepareIteration(iter)
		iter++
		h.Run(cfg)
	})
	const protocolCap = 75
	if allocs > protocolCap {
		t.Errorf("TwoPhaseCommit steady-state allocations per iteration = %.1f, want <= %d", allocs, protocolCap)
	}
	t.Logf("TwoPhaseCommit allocs/iteration through warmed harness: %.1f", allocs)
}

// invalidMachine declares two start states.
type invalidMachine struct{ psharp.StaticBase }

func (*invalidMachine) ConfigureType(sc *psharp.Schema) {
	sc.Start("A")
	sc.Start("B")
}

// nilAction binds a nil action with the builder its field picks.
type nilAction struct {
	psharp.StaticBase
	builder int
}

func (probe *nilAction) ConfigureType(sc *psharp.Schema) {
	st := sc.Start("S")
	switch probe.builder {
	case 0:
		st.OnEventDo(&evSpin{}, nil)
	case 1:
		st.OnEventDoM(&evSpin{}, nil)
	case 2:
		st.OnEntryM(nil)
	default:
		// A nil entry must not leave the slot free for a second one.
		st.OnExitM(nil).OnExitM(func(psharp.Machine, *psharp.Context) {})
	}
}

// TestInvalidStaticSchemaFailsAtRegister locks Register's error contract:
// a static machine or monitor with an invalid schema — two start states, or
// a nil action bound by any builder — is rejected at registration, on every
// Runtime; a failed compile never enters the process-wide table.
func TestInvalidStaticSchemaFailsAtRegister(t *testing.T) {
	bad := map[string]func() psharp.Machine{"TwoStarts": func() psharp.Machine { return &invalidMachine{} }}
	for i, b := range []string{"OnEventDo", "OnEventDoM", "OnEntryM", "OnExitM"} {
		bad["Nil"+b] = func() psharp.Machine { return &nilAction{builder: i} }
	}
	for i := 0; i < 3; i++ {
		r := psharp.NewRuntime()
		for name, factory := range bad {
			if err := r.Register(name, factory); err == nil {
				t.Errorf("runtime %d: Register accepted the invalid schema %s", i, name)
			}
			if err := r.RegisterMonitor(name+"Monitor", factory); err == nil {
				t.Errorf("runtime %d: RegisterMonitor accepted the invalid schema %s", i, name)
			}
		}
	}
	for name := range bad {
		for _, n := range []string{name, name + "Monitor"} {
			if got := psharp.CachedTypeSchemas(n); got != 0 {
				t.Errorf("the table keeps %d schemas for %s, want 0", got, n)
			}
		}
	}
}

// TestHarnessHalvesAllocations pins the headline perf claim: the pooled
// harness allocates less than half of what per-iteration RunTest allocates
// for the same workload (it is typically far below half).
func TestHarnessHalvesAllocations(t *testing.T) {
	setup := spinSetup(64)

	oneshotStrategy := sct.NewRandom(1)
	oneshotIter := 0
	oneshot := testing.AllocsPerRun(50, func() {
		oneshotStrategy.PrepareIteration(oneshotIter)
		oneshotIter++
		psharp.RunTest(setup, psharp.TestConfig{Strategy: oneshotStrategy})
	})

	pooled, _ := harnessAllocs(t, 64)
	if pooled > oneshot/2 {
		t.Errorf("pooled harness allocates %.1f/iteration vs one-shot RunTest %.1f: want <= 50%%", pooled, oneshot)
	}
	t.Logf("allocs/iteration: one-shot RunTest %.1f, pooled harness %.1f (%.1f%% saved)",
		oneshot, pooled, 100*(1-pooled/oneshot))
}

// TestHarnessCloseIsIdempotentAndGuarded covers the harness lifecycle edges.
func TestHarnessCloseIsIdempotentAndGuarded(t *testing.T) {
	h := psharp.NewTestHarness(spinSetup(4))
	h.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(1))})
	h.Close()
	h.Close() // second Close is a no-op
	defer func() {
		if recover() == nil {
			t.Error("Run after Close did not panic")
		}
	}()
	h.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(1))})
}

// crowdSetup creates n machines that block as soon as they are scheduled;
// the program quiesces once every one of them has been.
func crowdSetup(n int) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Idler", func() psharp.Machine { return &idler{} })
		for i := 0; i < n; i++ {
			r.MustCreate("Idler", nil)
		}
	}
}

// idler ignores evSpin and handles nothing else.
type idler struct{ psharp.StaticBase }

func (*idler) ConfigureType(sc *psharp.Schema) { sc.Start("Idle").Ignore(&evSpin{}) }

// TestCoroutineLifecycleBounded pins what happens to machine coroutines
// when harnesses come and go: however many one-shot RunTest calls and
// harness create/Run/Close cycles a process performs, the coroutines left
// behind are the ones parked in the reserve — at most ReserveCap — and a
// harness larger than the reserve has its overflow retired on Close, not
// leaked.
func TestCoroutineLifecycleBounded(t *testing.T) {
	before := runtime.NumGoroutine() - psharp.ReserveLen()
	check := func(what string) {
		t.Helper()
		if n := psharp.ReserveLen(); n > psharp.ReserveCap {
			t.Fatalf("%s: reserve holds %d instances, cap is %d", what, n, psharp.ReserveCap)
		}
		// Every coroutine this test can have left alive is in the reserve.
		const slack = 4
		if got, limit := runtime.NumGoroutine(), before+psharp.ReserveLen()+slack; got > limit {
			t.Fatalf("%s: %d goroutines, want <= %d (%d outside the reserve before the test + %d reserved + %d slack)",
				what, got, limit, before, psharp.ReserveLen(), slack)
		}
	}

	b := protocols.MustByName("TwoPhaseCommit", true)
	s := sct.NewRandom(3)
	for i := 0; i < 300; i++ {
		s.PrepareIteration(i)
		psharp.RunTest(b.Setup, psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps})
	}
	check("300 sequential RunTest calls")

	for i := 0; i < 50; i++ {
		h := psharp.NewTestHarness(b.Setup)
		for j := 0; j < 3; j++ {
			s.PrepareIteration(300 + 3*i + j)
			h.Run(psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps})
		}
		h.Close()
	}
	check("50 harness create/Run/Close cycles")

	// More idle instances than the reserve holds: Close fills the reserve
	// to its cap and stops the coroutines of the rest.
	h := psharp.NewTestHarness(crowdSetup(psharp.ReserveCap + 50))
	if res := h.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(1))}); res.Bug != nil || res.Machines != psharp.ReserveCap+50 {
		t.Fatalf("crowd run: bug %v, %d machines", res.Bug, res.Machines)
	}
	h.Close()
	if n := psharp.ReserveLen(); n != psharp.ReserveCap {
		t.Fatalf("reserve holds %d instances after an oversized Close, want the cap %d", n, psharp.ReserveCap)
	}
	h.Close() // idempotent: donates nothing twice
	check("oversized harness closed twice")

	// Instances drawn back out of a full reserve serve another harness,
	// started and never-started ones alike.
	first := psharp.RunTest(b.Setup, psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(9)), MaxSteps: b.MaxSteps})
	second := psharp.RunTest(b.Setup, psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(9)), MaxSteps: b.MaxSteps})
	if encodeTrace(t, first.Trace) != encodeTrace(t, second.Trace) {
		t.Fatal("the same seed produced different traces on reserve-drawn instances")
	}
	check("reserve reuse")
}

// TestCoroutineOneShotAllocationCap is the tier-1 guard for the start-up
// bound workloads: a one-shot RunTest of TwoPhaseCommit measured 238
// allocations on the channel controller (one goroutine and two channels per
// machine). Building a coroutine per machine per call would cost more than
// that; drawing parked instances from the reserve costs less.
func TestCoroutineOneShotAllocationCap(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommit", true)
	s := sct.NewRandom(1)
	iter := 0
	allocs := testing.AllocsPerRun(100, func() {
		s.PrepareIteration(iter)
		iter++
		psharp.RunTest(b.Setup, psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps})
	})
	const oneShotCap = 238
	if allocs > oneShotCap {
		t.Errorf("one-shot RunTest of TwoPhaseCommit allocates %.1f, want <= %d (the channel controller's cost)", allocs, oneShotCap)
	}
	t.Logf("TwoPhaseCommit allocs per one-shot RunTest: %.1f", allocs)
}

type evWork struct {
	psharp.EventBase
	To psharp.MachineID
}

// teardownSetup builds one iteration that ends with machines in every
// parked position teardown has to deal with. Machines 1 and 3 (Relays) send
// to machine 2 and stay parked mid-handler at the send's scheduling point;
// machine 2 (Sink) runs its entry, blocks on its empty queue, and answers
// the first relayed message with a failing assertion; machine 4 is created
// and never scheduled; machine 5 (Sink) runs its entry and stays blocked.
// log records what ran.
func teardownSetup(log *[]string) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Relay", func() psharp.Machine { return &tdRelay{logged{log: log}} })
		r.MustRegister("Sink", func() psharp.Machine { return &tdSink{logged{log: log}} })
		relay := r.MustCreate("Relay", nil)
		sink := r.MustCreate("Sink", nil)
		parked := r.MustCreate("Relay", nil)
		r.MustCreate("Relay", nil) // never scheduled
		r.MustCreate("Sink", nil)  // blocked for good
		for _, id := range []psharp.MachineID{relay, parked} {
			if err := r.SendEvent(id, &evWork{To: sink}); err != nil {
				panic(err)
			}
		}
	}
}

// tdRelay logs its entry and both sides of the evWork it sends on evWork.
type tdRelay struct{ logged }

func (*tdRelay) ConfigureType(sc *psharp.Schema) {
	sc.Start("R").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) { note(m, "%d:entry", ctx.ID().Seq) }).
		OnEventDoM(&evWork{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			note(m, "%d:before-send", ctx.ID().Seq)
			ctx.Send(ev.(*evWork).To, &evWork{})
			note(m, "%d:after-send", ctx.ID().Seq)
		})
}

// tdSink logs its entry and fails on the first evWork.
type tdSink struct{ logged }

func (*tdSink) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) { note(m, "%d:entry", ctx.ID().Seq) }).
		OnEventDoM(&evWork{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			ctx.Assert(false, "sink reached")
		})
}

// forwarder passes each evWork on to the machine it names.
type forwarder struct{ psharp.StaticBase }

func (*forwarder) ConfigureType(sc *psharp.Schema) {
	sc.Start("R").OnEventDoM(&evWork{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		ctx.Send(ev.(*evWork).To, &evWork{To: ev.(*evWork).To})
	})
}

// TestCoroutineTeardownMixedPositions ends an iteration on a bug while
// other machines are blocked, parked mid-handler and not yet started, and
// requires teardown to unwind exactly the live frames: no handler resumes
// past its scheduling point, the unscheduled machine never runs, and the
// recycled instances replay the identical iteration — pooled and one-shot.
func TestCoroutineTeardownMixedPositions(t *testing.T) {
	var log []string
	setup := teardownSetup(&log)
	// Both sinks run their entry and block, both relays run up to their
	// send, then the first sink handles a relayed message and fails.
	script := func() psharp.Strategy { return &scripted{picks: []uint64{2, 5, 3, 1, 2}} }
	want := []string{"2:entry", "5:entry", "3:entry", "3:before-send", "1:entry", "1:before-send"}

	h := psharp.NewTestHarness(setup)
	defer h.Close()
	var first string
	for i := 0; i < 4; i++ {
		log = log[:0]
		var res psharp.IterationResult
		if i < 3 {
			res = h.Run(psharp.TestConfig{Strategy: script()})
		} else {
			res = psharp.RunTest(setup, psharp.TestConfig{Strategy: script()})
		}
		if res.Bug == nil || res.Bug.Kind != psharp.BugAssertion || res.Bug.Machine.Seq != 2 {
			t.Fatalf("iteration %d: bug %v, want the sink's assertion", i, res.Bug)
		}
		if res.SchedulingPoints != 5 || res.Machines != 5 {
			t.Fatalf("iteration %d: %d scheduling points, %d machines, want 5 and 5", i, res.SchedulingPoints, res.Machines)
		}
		if !slices.Equal(log, want) {
			t.Fatalf("iteration %d ran %v, want %v", i, log, want)
		}
		enc := encodeTrace(t, res.Trace)
		if i == 0 {
			first = enc
		} else if enc != first {
			t.Fatalf("iteration %d trace diverged:\n%s\nfirst:\n%s", i, enc, first)
		}
	}
}

// TestCoroutineHandlerPanicBeforeSchedulingPoint fails a handler inside
// Send, after the call and before the send's scheduling point is reached —
// by an unknown target and by a strategy that answers the per-send fault
// query with a crash. Either way the machine must unwind from the middle of
// the send, report the bug once, and leave the harness reusable.
func TestCoroutineHandlerPanicBeforeSchedulingPoint(t *testing.T) {
	setup := func(r *psharp.Runtime) {
		r.MustRegister("Relay", func() psharp.Machine { return &forwarder{} })
		a := r.MustCreate("Relay", nil)
		b := r.MustCreate("Relay", nil)
		if err := r.SendEvent(a, &evWork{To: b}); err != nil {
			panic(err)
		}
		// b forwards a's message to a machine that does not exist.
		if err := r.SendEvent(b, &evWork{To: psharp.MachineID{Type: "Relay", Seq: 99}}); err != nil {
			panic(err)
		}
	}
	h := psharp.NewTestHarness(setup)
	defer h.Close()
	for i := 0; i < 3; i++ {
		// Unknown target: machine 2 panics inside Send on its first event.
		res := h.Run(psharp.TestConfig{Strategy: &scripted{picks: []uint64{2, 2}}})
		if res.Bug == nil || res.Bug.Kind != psharp.BugAssertion || res.Bug.Machine.Seq != 2 || !strings.Contains(res.Bug.Message, "unknown machine") {
			t.Fatalf("round %d: bug %v, want machine 2's send to an unknown machine", i, res.Bug)
		}
		// Invalid fault answer: machine 1 panics inside Send at the fault query.
		res = h.Run(psharp.TestConfig{
			Strategy: &scripted{picks: []uint64{1, 1}, sendFault: psharp.FaultAction{Kind: psharp.FaultCrash}},
			Faults:   &psharp.FaultConfig{},
		})
		if res.Bug == nil || res.Bug.Machine.Seq != 1 || !strings.Contains(res.Bug.Message, "send fault point") {
			t.Fatalf("round %d: bug %v, want machine 1's rejected send fault", i, res.Bug)
		}
		// And the harness still runs the program to its ordinary end.
		res = h.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(uint64(i) + 1))})
		if res.Bug == nil || !strings.Contains(res.Bug.Message, "unknown machine") {
			t.Fatalf("round %d: random run ended with %v, want the unknown-machine send", i, res.Bug)
		}
	}
}

// panicAt makes its k-th machine choice a panic, raised after it has written
// half an answer into the decision record it was handed; every other
// decision is the inner strategy's, and answered counts those. onMachine
// records whether that choice was being taken on a machine's coroutine
// (mid-handler, inside a send's scheduling point) rather than on the stack
// that called Run.
type panicAt struct {
	sct.Strategy
	k, choices, answered int
	onMachine            bool
}

type strategyPanic struct{ choice int }

func (s *panicAt) Decide(c *psharp.Choice, d *psharp.Decision) {
	if c.Kind == psharp.ChoiceMachine {
		if s.choices++; s.choices == s.k {
			d.Kind = psharp.DecisionSchedule
			s.onMachine = bytes.Contains(debug.Stack(), []byte(".yieldPoint("))
			panic(strategyPanic{s.k})
		}
	}
	s.Strategy.Decide(c, d)
	s.answered++
}

// TestCoroutineStrategyPanicSurfacesAfterTeardown panics the strategy at its
// k-th machine choice, for every k of a schedule — on the controller's stack
// and, wherever the previous step ended at a send, mid-handler on a
// machine's. Either way the caller of Run or RunTest must see that very
// panic value (the machine's recover must not report it as the machine's
// bug), after teardown: the half-written record is no part of the trace,
// which holds the decisions answered before it and nothing else, the harness
// runs again and closes, a later harness drawing the same instances from the
// reserve runs clean, and no coroutine is left behind.
func TestCoroutineStrategyPanicSurfacesAfterTeardown(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommit", false)
	run := func(h *psharp.TestHarness, s sct.Strategy) (res psharp.IterationResult, panicked any) {
		defer func() { panicked = recover() }()
		s.PrepareIteration(0)
		cfg := psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps}
		if h != nil {
			return h.Run(cfg), nil
		}
		return psharp.RunTest(b.Setup, cfg), nil
	}
	clean, _ := run(nil, sct.NewRandom(5))
	if clean.Bug != nil || clean.SchedulingPoints < 20 {
		t.Fatalf("reference run: bug %v, %d scheduling points", clean.Bug, clean.SchedulingPoints)
	}
	want := encodeTrace(t, clean.Trace)

	before := runtime.NumGoroutine() - psharp.ReserveLen()
	midHandler := 0
	for _, pooled := range []bool{true, false} {
		var h *psharp.TestHarness
		if pooled {
			h = psharp.NewTestHarness(b.Setup)
		}
		for k := 1; k <= clean.SchedulingPoints; k++ {
			s := &panicAt{Strategy: sct.NewRandom(5), k: k}
			if _, got := run(h, s); got != (strategyPanic{k}) {
				t.Fatalf("pooled=%v k=%d: Run panicked with %v, want the strategy's own panic value", pooled, k, got)
			}
			if s.onMachine {
				midHandler++
			}
			if pooled && h.TraceLen() != s.answered {
				t.Fatalf("k=%d: the panicked iteration's trace holds %d decisions, the strategy answered %d", k, h.TraceLen(), s.answered)
			}
			// The same harness (or, one-shot, a new one served by the
			// reserve the panicked one closed into) runs the whole
			// schedule as if nothing had happened.
			res, got := run(h, sct.NewRandom(5))
			if got != nil || res.Bug != nil || encodeTrace(t, res.Trace) != want {
				t.Fatalf("pooled=%v k=%d: run after the panic: panic %v, bug %v, trace equal=%v",
					pooled, k, got, res.Bug, encodeTrace(t, res.Trace) == want)
			}
		}
		if pooled {
			h.Close()
		}
	}
	if midHandler == 0 {
		t.Fatal("no panic was raised on a machine's stack: the test does not exercise the mid-handler decision")
	}
	const slack = 4
	if got, limit := runtime.NumGoroutine(), before+psharp.ReserveLen()+slack; got > limit {
		t.Fatalf("%d goroutines after %d strategy panics, want <= %d: teardown left coroutines parked mid-handler",
			got, 2*clean.SchedulingPoints, limit)
	}
}

// TestCoroutineTraceSurvivesClose holds the two traces that outlive their
// harness — RunTest's result and the engine's Report.FirstBugTrace — to
// their encoding while a hundred later harnesses draw the trace buffers
// those harnesses donated when they closed, overwrite them with other
// schedules and donate them again. Either trace aliasing a donated buffer
// shows as a changed encoding.
func TestCoroutineTraceSurvivesClose(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommit", true)
	res := psharp.RunTest(b.Setup, psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(3)), MaxSteps: b.MaxSteps})
	rep := sct.Run(b.Setup, sct.Options{Strategy: sct.NewRandom(3), Iterations: 2000, MaxSteps: b.MaxSteps, StopOnFirstBug: true})
	if rep.FirstBugTrace == nil || res.Trace.Len() < 20 {
		t.Fatalf("nothing to hold on to: first bug %v, one-shot trace of %d decisions", rep.FirstBug, res.Trace.Len())
	}
	oneShot, firstBug := encodeTrace(t, res.Trace), encodeTrace(t, rep.FirstBugTrace)
	for i := 0; i < 100; i++ {
		h := psharp.NewTestHarness(b.Setup)
		h.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(uint64(100 + i))), MaxSteps: b.MaxSteps})
		h.Close()
	}
	if encodeTrace(t, res.Trace) != oneShot {
		t.Error("RunTest's trace changed under later harnesses: it aliases a buffer its harness gave away")
	}
	if encodeTrace(t, rep.FirstBugTrace) != firstBug {
		t.Error("Report.FirstBugTrace changed under later harnesses: it aliases a buffer its harness gave away")
	}
	replayed := sct.ReplayTrace(b.Setup, rep.FirstBugTrace, psharp.TestConfig{MaxSteps: b.MaxSteps})
	if replayed.Bug == nil || encodeTrace(t, replayed.Trace) != firstBug {
		t.Errorf("replay of the kept first-bug trace: bug %v, trace equal=%v", replayed.Bug, encodeTrace(t, replayed.Trace) == firstBug)
	}
}

// adjacentRepeats counts the schedule decisions of a trace that pick the
// machine the schedule decision before them picked. Without faults that is
// exactly when the first of the two steps ended at a send or create: a
// machine that blocked or halted cannot be enabled at the very next point.
func adjacentRepeats(tr *psharp.Trace) int {
	n, last := 0, psharp.MachineID{}
	for _, d := range tr.Decisions {
		if d.Kind != psharp.DecisionSchedule {
			continue
		}
		if d.Machine == last {
			n++
		}
		last = d.Machine
	}
	return n
}

// TestContinuedPointsExact pins IterationResult.ContinuedPoints as an exact
// function of the schedule: the scheduling points at which the strategy kept
// the machine that had just yielded — counted from the trace — the same
// through a pooled harness, one-shot RunTest and a repeated run, and zero
// for a program whose handlers never reach a send.
func TestContinuedPointsExact(t *testing.T) {
	total := 0
	for _, b := range protocols.All() {
		h := psharp.NewTestHarness(b.Setup)
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := func() psharp.TestConfig {
				return psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(seed)), MaxSteps: b.MaxSteps, LivelockAsBug: b.LivelockAsBug}
			}
			pooled, again, oneShot := h.Run(cfg()).ContinuedPoints, h.Run(cfg()).ContinuedPoints, psharp.RunTest(b.Setup, cfg())
			if want := adjacentRepeats(oneShot.Trace); pooled != want || again != want || oneShot.ContinuedPoints != want {
				t.Errorf("%s seed %d: ContinuedPoints pooled %d, pooled again %d, one-shot %d; the trace repeats a machine %d times",
					b.ID(), seed, pooled, again, oneShot.ContinuedPoints, want)
			}
			total += oneShot.ContinuedPoints
		}
		h.Close()
	}
	if total == 0 {
		t.Error("no scheduling point of any protocol continued the yielding machine")
	}
	res := psharp.RunTest(crowdSetup(8), psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(1))})
	if res.SchedulingPoints != 8 || res.ContinuedPoints != 0 {
		t.Errorf("send-free program: %d scheduling points, %d continued; want 8 and 0", res.SchedulingPoints, res.ContinuedPoints)
	}
}

// chatty logs calls lines from its entry action.
type chatty struct {
	psharp.StaticBase
	calls int
}

func (*chatty) ConfigureType(sc *psharp.Schema) {
	sc.Start("Talk").OnEntryM(func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
		for i := 0; i < m.(*chatty).calls; i++ {
			ctx.Logf("line %s of %d", "x", 1000)
		}
	})
}

// TestLogfWithoutLogAllocatesNothing: with no execution log, Context.Logf
// must not format its message. A harness iteration whose handler calls it
// 1000 times allocates no more than the same iteration without the calls.
func TestLogfWithoutLogAllocatesNothing(t *testing.T) {
	allocs := func(calls int) float64 {
		h := psharp.NewTestHarness(func(r *psharp.Runtime) {
			r.MustRegister("Chatty", func() psharp.Machine { return &chatty{calls: calls} })
			r.MustCreate("Chatty", nil)
		})
		defer h.Close()
		cfg := psharp.TestConfig{Strategy: &scripted{}}
		h.Run(cfg)
		return testing.AllocsPerRun(20, func() { h.Run(cfg) })
	}
	quiet, chattering := allocs(0), allocs(1000)
	if chattering > quiet {
		t.Fatalf("an iteration calling Logf 1000 times with no log allocates %.0f times, %.0f without the calls", chattering, quiet)
	}
}
