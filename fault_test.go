package psharp_test

// Acceptance tests for fault-injection nondeterminism: the seeded
// crash-only bug in TwoPhaseCommitFT(buggy) is invisible to fault-free
// exploration and found by fault-enabled exploration; fault traces replay
// byte-deterministically; and the correct variant never false-positives no
// matter how hard it is faulted.

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

// TestFaultInjectionFindsCrashOnlyBug is the headline acceptance test: the
// buggy FT coordinator announces decisions before persisting them, a
// mistake no fault-free schedule can expose. 200 fault-free iterations see
// nothing; the same strategy with a crash budget finds the atomicity
// violation, and replaying the recorded trace reproduces the identical bug
// and the identical byte-level trace.
func TestFaultInjectionFindsCrashOnlyBug(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommitFT", true)

	faultFree := sct.Run(b.SetupMonitored(), sct.Options{
		Strategy:       sct.NewRandom(42),
		Iterations:     200,
		MaxSteps:       b.MaxSteps,
		StopOnFirstBug: true,
	})
	if faultFree.FirstBug != nil {
		t.Fatalf("fault-free exploration found %v; the seeded bug must require a crash", faultFree.FirstBug)
	}

	rep := sct.Run(b.SetupMonitored(), sct.Options{
		Strategy:       sct.NewRandom(1),
		Iterations:     3000,
		MaxSteps:       b.MaxSteps,
		StopOnFirstBug: true,
		Faults: sct.FaultOptions{
			Budget: 2, Seed: 1, Horizon: 64,
			Immune: b.FaultImmune, Restart: true,
		},
	})
	if rep.FirstBug == nil {
		t.Fatalf("fault-enabled exploration missed the seeded bug in %d iterations", rep.Iterations)
	}
	if rep.FirstBug.Kind != psharp.BugMonitor {
		t.Fatalf("found %v (kind %v), want the FTAtomicity monitor violation", rep.FirstBug, rep.FirstBug.Kind)
	}
	if rep.Faults.Crashes == 0 {
		t.Fatalf("run reports no crashes injected: %+v", rep.Faults)
	}
	if !rep.FirstBugTrace.HasFaultDecisions() {
		t.Fatal("the buggy trace records no fault decisions")
	}

	// Replay reproduces the same bug — and, because every fault query is
	// recorded (including the declines), the replayed iteration re-records a
	// byte-identical trace.
	res := sct.ReplayTrace(b.SetupMonitored(), rep.FirstBugTrace, psharp.TestConfig{MaxSteps: b.MaxSteps})
	if res.Bug == nil || res.Bug.Kind != rep.FirstBug.Kind || res.Bug.Message != rep.FirstBug.Message {
		t.Fatalf("replay did not reproduce the bug: got %v, want %v", res.Bug, rep.FirstBug)
	}
	var want, got bytes.Buffer
	if err := rep.FirstBugTrace.Encode(&want); err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("replayed trace is not byte-identical:\nrecorded:\n%s\nreplayed:\n%s", want.String(), got.String())
	}
}

// TestFaultCorrectVariantStaysClean hammers the crash-tolerant (correct)
// coordinator with a heavy fault load — crashes with restarts, preserved
// mailboxes, drops, duplicates, reorders — and requires zero violations:
// fault injection must not manufacture false positives against a program
// that actually follows the write-ahead discipline.
func TestFaultCorrectVariantStaysClean(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommitFT", false)
	rep := sct.Run(b.SetupMonitored(), sct.Options{
		Strategy:   sct.NewRandom(7),
		Iterations: 1500,
		MaxSteps:   b.MaxSteps,
		Faults: sct.FaultOptions{
			Budget: 4, Seed: 7, Horizon: 64,
			Immune: b.FaultImmune, Restart: true, PreserveMailbox: true,
		},
	})
	if rep.BuggyIterations != 0 {
		t.Fatalf("correct variant reported %d buggy iterations (first: %v)", rep.BuggyIterations, rep.FirstBug)
	}
	if rep.Faults.Crashes == 0 || rep.Faults.Restarts == 0 || rep.Faults.Total() < 100 {
		t.Fatalf("fault load did not materialize: %+v", rep.Faults)
	}
}

// TestFaultDeterminism runs the same 25 fault-injected iterations on two
// independently recycled harnesses and requires byte-identical traces:
// fault decisions are a pure function of (seed, iteration), so recycling
// and instance reuse must not leak state into the fault stream.
func TestFaultDeterminism(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommitFT", true)
	const iters = 25

	runAll := func() [][]byte {
		fi := sct.NewFaultInjector(sct.NewRandom(11), sct.FaultOptions{
			Budget: 2, Seed: 11, Horizon: 64,
			Immune: b.FaultImmune, Restart: true,
		})
		h := psharp.NewTestHarness(b.SetupMonitored())
		defer h.Close()
		var traces [][]byte
		for i := 0; i < iters; i++ {
			if !fi.PrepareIteration(i) {
				t.Fatalf("strategy refused iteration %d", i)
			}
			res := h.Run(psharp.TestConfig{
				Strategy: fi,
				MaxSteps: b.MaxSteps,
				Faults:   &psharp.FaultConfig{Immune: b.FaultImmune},
			})
			var buf bytes.Buffer
			if err := res.Trace.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			traces = append(traces, buf.Bytes())
		}
		return traces
	}

	first, second := runAll(), runAll()
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("iteration %d traces diverged between harnesses:\nfirst:\n%s\nsecond:\n%s",
				i, first[i], second[i])
		}
	}
}

// TestFaultReplayAutoEnablesFaults locks the ReplayTrace contract: a trace
// carrying fault decisions replays without the caller wiring any
// FaultConfig — the engine enables the fault path automatically, and the
// recorded actions (not a strategy) drive every injection.
func TestFaultReplayAutoEnablesFaults(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommitFT", true)
	rep := sct.Run(b.SetupMonitored(), sct.Options{
		Strategy:       sct.NewRandom(2),
		Iterations:     3000,
		MaxSteps:       b.MaxSteps,
		StopOnFirstBug: true,
		Faults: sct.FaultOptions{
			Budget: 2, Seed: 2, Horizon: 64,
			Immune: b.FaultImmune, Restart: true,
		},
	})
	if rep.FirstBug == nil {
		t.Fatal("no buggy fault trace to replay")
	}
	// Note: zero-value TestConfig — no Faults field set.
	res := sct.ReplayTrace(b.SetupMonitored(), rep.FirstBugTrace, psharp.TestConfig{MaxSteps: b.MaxSteps})
	if res.Bug == nil || res.Bug.Message != rep.FirstBug.Message {
		t.Fatalf("replay without explicit FaultConfig got %v, want %v", res.Bug, rep.FirstBug)
	}
}

// scripted is a hand-driven decision strategy for the lifecycle tests:
// machine choices follow picks (creation sequence numbers; once the script
// runs out, or when it names a machine that is not enabled, the first
// enabled machine runs), the first schedule-level fault query after declines
// declined ones is answered with crash (if set), and every send-level fault
// query with sendFault. Its bad-th machine choice (0: none) is answered the
// way wrong says; answered counts the queries answered properly until then.
type scripted struct {
	picks     []uint64
	declines  int
	crash     *psharp.FaultAction
	sendFault psharp.FaultAction

	bad, choices, answered int
	wrong                  func(c *psharp.Choice, d *psharp.Decision)
}

func (s *scripted) Decide(c *psharp.Choice, d *psharp.Decision) {
	switch c.Kind {
	case psharp.ChoiceMachine:
		if s.choices++; s.choices == s.bad {
			s.wrong(c, d)
			return
		}
		next := c.Enabled[0]
		if len(s.picks) > 0 {
			for _, id := range c.Enabled {
				if id.Seq == s.picks[0] {
					next = id
				}
			}
			s.picks = s.picks[1:]
		}
		d.Kind, d.Machine = psharp.DecisionSchedule, next
	case psharp.ChoiceBool:
		d.Kind = psharp.DecisionBool
	case psharp.ChoiceInt:
		d.Kind = psharp.DecisionInt
	default:
		d.Kind = psharp.DecisionFault
		if c.Point == psharp.FaultPointSend {
			d.Fault = s.sendFault
		} else if s.declines > 0 {
			s.declines--
		} else if s.crash != nil {
			d.Fault, s.crash = *s.crash, nil
		}
	}
	s.answered++
}

// The three methods make a scripted a psharp.Strategy and nothing else: the
// controller finds Decide and puts every query to it.
const notThroughDecide = "scripted: the controller asks a DecisionStrategy through Decide"

func (s *scripted) NextBool() bool  { panic(notThroughDecide) }
func (s *scripted) NextInt(int) int { panic(notThroughDecide) }
func (s *scripted) NextMachine(psharp.MachineID, []psharp.MachineID) psharp.MachineID {
	panic(notThroughDecide)
}

// TestCoroutineRejectedAnswerLeavesNoRecord answers the k-th machine choice
// of a fault-enabled TwoPhaseCommitFT schedule, for every k, with a decision
// of the wrong kind and with a machine that is not enabled. The strategy
// writes its answer into the trace's next record, so the record must become
// part of the trace only once it has passed validation: the iteration ends
// with the strategy's bug and the trace holds exactly the decisions answered
// properly before it — on the controller's stack and on a machine's alike —
// and the harness runs the next schedule as if nothing had happened.
func TestCoroutineRejectedAnswerLeavesNoRecord(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommitFT", false)
	cfg := func(s *scripted) psharp.TestConfig {
		return psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps, Faults: &psharp.FaultConfig{}}
	}
	h := psharp.NewTestHarness(b.Setup)
	defer h.Close()
	clean := h.Run(cfg(&scripted{}))
	if clean.Bug != nil || clean.SchedulingPoints < 20 {
		t.Fatalf("reference run: bug %v, %d scheduling points", clean.Bug, clean.SchedulingPoints)
	}
	want, points := encodeTrace(t, clean.Trace), clean.SchedulingPoints
	for _, tc := range []struct {
		name, message string
		wrong         func(c *psharp.Choice, d *psharp.Decision)
	}{
		{"wrong kind", "answered a machine choice with decision kind 1", func(c *psharp.Choice, d *psharp.Decision) {
			d.Kind, d.Bool, d.Machine = psharp.DecisionBool, true, c.Enabled[0]
		}},
		{"not enabled", "which is not enabled", func(c *psharp.Choice, d *psharp.Decision) {
			d.Kind, d.Machine = psharp.DecisionSchedule, psharp.MachineID{Type: c.Enabled[0].Type, Seq: 99}
		}},
	} {
		for k := 1; k <= points; k++ {
			s := &scripted{bad: k, wrong: tc.wrong}
			res := h.Run(cfg(s))
			if res.Bug == nil || res.Bug.Kind != psharp.BugPanic || !strings.Contains(res.Bug.Message, tc.message) {
				t.Fatalf("%s at choice %d: bug %v, want the strategy's", tc.name, k, res.Bug)
			}
			if got := len(res.Trace.Decisions); got != s.answered || res.SchedulingPoints != k-1 {
				t.Fatalf("%s at choice %d: trace holds %d decisions and %d scheduling points, want the %d answered and %d",
					tc.name, k, got, res.SchedulingPoints, s.answered, k-1)
			}
			if !strings.HasPrefix(want, encodeTrace(t, res.Trace)) {
				t.Fatalf("%s at choice %d: the trace is not a prefix of the clean run's", tc.name, k)
			}
		}
		if res := h.Run(cfg(&scripted{})); res.Bug != nil || encodeTrace(t, res.Trace) != want {
			t.Fatalf("%s: run after the rejected answers: bug %v, trace equal=%v", tc.name, res.Bug, encodeTrace(t, res.Trace) == want)
		}
	}
}

// TestCoroutineCrashBeforeFirstSchedule crashes a machine that was created
// but never scheduled — its coroutine holds no run frame yet — with and
// without restart. The crash must still be a crash: counted in FaultStats,
// observed by monitors as MachineCrashed (and MachineRestarted), the dead
// machine's entry action never runs, the rebooted one's runs exactly once,
// and the recorded trace replays byte for byte.
func TestCoroutineCrashBeforeFirstSchedule(t *testing.T) {
	var log []string
	setup := func(r *psharp.Runtime) {
		r.MustRegister("Worker", func() psharp.Machine { return &crashWorker{logged{log: &log}} })
		r.MustRegisterMonitor("Lifecycle", func() psharp.Machine { return &lifecycleLog{logged{log: &log}} })
		// The payload (seen by the entry action) marks each incarnation.
		r.MustCreate("Worker", &evWork{To: psharp.MachineID{Seq: 10}})
		r.MustCreate("Worker", &evWork{To: psharp.MachineID{Seq: 20}})
	}
	victim := psharp.MachineID{Type: "Worker", Seq: 2}
	for _, tc := range []struct {
		restart bool
		want    []string
		stats   psharp.FaultStats
		points  int
	}{
		{false, []string{"crashed(2,restart=false)", "1:entry(10)"}, psharp.FaultStats{Crashes: 1}, 1},
		{true, []string{"crashed(2,restart=true)", "restarted(2)", "1:entry(10)", "2:entry(20)"}, psharp.FaultStats{Crashes: 1, Restarts: 1}, 2},
	} {
		h := psharp.NewTestHarness(setup)
		var first *psharp.Trace
		for i := 0; i < 3; i++ { // recycled instances must behave the same
			log = log[:0]
			res := h.Run(psharp.TestConfig{
				Strategy: &scripted{crash: &psharp.FaultAction{Kind: psharp.FaultCrash, Machine: victim, Restart: tc.restart}},
				Faults:   &psharp.FaultConfig{},
			})
			if res.Bug != nil {
				t.Fatalf("restart=%v: unexpected bug %v", tc.restart, res.Bug)
			}
			if res.Faults != tc.stats || res.SchedulingPoints != tc.points {
				t.Fatalf("restart=%v: faults %+v, %d scheduling points; want %+v, %d", tc.restart, res.Faults, res.SchedulingPoints, tc.stats, tc.points)
			}
			if !slices.Equal(log, tc.want) {
				t.Fatalf("restart=%v: ran %v, want %v", tc.restart, log, tc.want)
			}
			if first == nil {
				first = res.Trace.Clone()
			} else if encodeTrace(t, res.Trace) != encodeTrace(t, first) {
				t.Fatalf("restart=%v: recycled iteration %d recorded a different trace", tc.restart, i)
			}
		}
		h.Close()

		log = log[:0]
		res := sct.ReplayTrace(setup, first, psharp.TestConfig{})
		if res.Bug != nil || res.Faults != tc.stats || !slices.Equal(log, tc.want) || encodeTrace(t, res.Trace) != encodeTrace(t, first) {
			t.Fatalf("restart=%v: replay diverged: bug %v, faults %+v, ran %v", tc.restart, res.Bug, res.Faults, log)
		}
	}
}

// TestCoroutineCrashYieldingMachineAtItsSend injects a crash of the machine
// that is asking: machine 1 reaches its send's scheduling point, takes the
// scheduler pass on its own stack, and the pass's fault query is answered
// with a crash of machine 1. The crash has to be applied from the
// controller's stack — the handler must never resume past the send — and the
// pass restarted: the message it sent is delivered, the rebooted incarnation
// runs its entry action again, and the trace replays byte for byte.
func TestCoroutineCrashYieldingMachineAtItsSend(t *testing.T) {
	var log []string
	setup := func(r *psharp.Runtime) {
		r.MustRegister("Relay", func() psharp.Machine { return &crashRelay{logged{log: &log}} })
		r.MustRegister("Sink", func() psharp.Machine { return &crashSink{logged{log: &log}} })
		relay := r.MustCreate("Relay", nil)
		sink := r.MustCreate("Sink", nil)
		if err := r.SendEvent(relay, &evWork{To: sink}); err != nil {
			panic(err)
		}
	}
	victim := psharp.MachineID{Type: "Relay", Seq: 1}
	for _, tc := range []struct {
		restart bool
		want    []string
		stats   psharp.FaultStats
		points  int
	}{
		{false, []string{"1:entry", "1:before-send", "2:got"}, psharp.FaultStats{Crashes: 1}, 2},
		{true, []string{"1:entry", "1:before-send", "1:entry", "2:got"}, psharp.FaultStats{Crashes: 1, Restarts: 1}, 3},
	} {
		// The first pass (the controller's) declines and starts machine 1;
		// the second is machine 1's own, at its send.
		cfg := func() psharp.TestConfig {
			return psharp.TestConfig{
				Strategy: &scripted{picks: []uint64{1, 1, 2}, declines: 1,
					crash: &psharp.FaultAction{Kind: psharp.FaultCrash, Machine: victim, Restart: tc.restart}},
				Faults: &psharp.FaultConfig{},
			}
		}
		h := psharp.NewTestHarness(setup)
		var first *psharp.Trace
		for i := 0; i < 4; i++ { // three recycled iterations, then one-shot
			log = log[:0]
			var res psharp.IterationResult
			if i < 3 {
				res = h.Run(cfg())
			} else {
				res = psharp.RunTest(setup, cfg())
			}
			if res.Bug != nil || res.Faults != tc.stats || res.SchedulingPoints != tc.points || res.ContinuedPoints != 0 {
				t.Fatalf("restart=%v iteration %d: bug %v, faults %+v, %d scheduling points (%d continued); want none, %+v, %d (0)",
					tc.restart, i, res.Bug, res.Faults, res.SchedulingPoints, res.ContinuedPoints, tc.stats, tc.points)
			}
			if !slices.Equal(log, tc.want) {
				t.Fatalf("restart=%v iteration %d ran %v, want %v", tc.restart, i, log, tc.want)
			}
			if first == nil {
				first = res.Trace.Clone()
			} else if encodeTrace(t, res.Trace) != encodeTrace(t, first) {
				t.Fatalf("restart=%v: iteration %d recorded a different trace", tc.restart, i)
			}
		}
		h.Close()

		log = log[:0]
		res := sct.ReplayTrace(setup, first, psharp.TestConfig{})
		if res.Bug != nil || res.Faults != tc.stats || !slices.Equal(log, tc.want) || encodeTrace(t, res.Trace) != encodeTrace(t, first) {
			t.Fatalf("restart=%v: replay diverged: bug %v, faults %+v, ran %v", tc.restart, res.Bug, res.Faults, log)
		}
	}
}

// crashWorker logs its entry with the incarnation its payload marks.
type crashWorker struct{ logged }

func (*crashWorker) ConfigureType(sc *psharp.Schema) {
	sc.Start("W").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			note(m, "%d:entry(%v)", ctx.ID().Seq, ev.(*evWork).To.Seq)
		}).
		Ignore(&evSpin{})
}

// lifecycleLog is a monitor logging the crashes and restarts it observes.
type lifecycleLog struct{ logged }

func (*lifecycleLog) ConfigureType(sc *psharp.Schema) {
	sc.Start("L").
		OnEventDoM(&psharp.MachineCrashed{}, func(m psharp.Machine, _ *psharp.Context, ev psharp.Event) {
			e := ev.(*psharp.MachineCrashed)
			note(m, "crashed(%d,restart=%v)", e.Machine.Seq, e.Restart)
		}).
		OnEventDoM(&psharp.MachineRestarted{}, func(m psharp.Machine, _ *psharp.Context, ev psharp.Event) {
			note(m, "restarted(%d)", ev.(*psharp.MachineRestarted).Machine.Seq)
		})
}

// crashRelay logs its entry and both sides of the send it makes on evWork.
type crashRelay struct{ logged }

func (*crashRelay) ConfigureType(sc *psharp.Schema) {
	sc.Start("R").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) { note(m, "%d:entry", ctx.ID().Seq) }).
		OnEventDoM(&evWork{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			note(m, "%d:before-send", ctx.ID().Seq)
			ctx.Send(ev.(*evWork).To, &evSpin{})
			note(m, "%d:after-send", ctx.ID().Seq)
		})
}

// crashSink logs the evSpin it gets.
type crashSink struct{ logged }

func (*crashSink) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").OnEventDoM(&evSpin{}, func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
		note(m, "%d:got", ctx.ID().Seq)
	})
}

// crashAt is scripted, except that its k-th eligible schedule-level fault
// query crashes the last crashable machine — restarted if restart says so;
// visits is how many states cache had been shown by then.
type crashAt struct {
	scripted
	k, queries int
	restart    bool
	cache      *rehashCache
	visits     int
}

func (s *crashAt) Decide(c *psharp.Choice, d *psharp.Decision) {
	if c.Kind == psharp.ChoiceFault && c.Point == psharp.FaultPointSchedule && c.Eligible {
		if s.queries++; s.queries == s.k {
			d.Kind = psharp.DecisionFault
			d.Fault = psharp.FaultAction{Kind: psharp.FaultCrash, Machine: c.Crashable[len(c.Crashable)-1], Restart: s.restart}
			s.visits = s.cache.visits
			return
		}
	}
	s.scripted.Decide(c, d)
}

// rehashCache prunes nothing and holds every hash it is shown to a rehash of
// the same state from scratch; wrong is the depth of the first that differs.
type rehashCache struct {
	h             *psharp.TestHarness
	visits, wrong int
}

func (c *rehashCache) Visit(state, _ uint64, depth int) bool {
	if c.visits++; c.wrong == 0 && state != c.h.RehashState() {
		c.wrong = depth
	}
	return false
}

// TestFaultCrashRehashesCrashedMachine crashes one machine of
// TwoPhaseCommitFT, with and without restart, at each of its first schedule
// fault points, under a state cache. A crash halts the machine, drops its
// mailbox and on a restart rewinds its state, none of which is a step of
// its own: the crash has to mark its hash component stale, or the state
// hashed at every later point is the one the machine had before it crashed.
func TestFaultCrashRehashesCrashedMachine(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommitFT", false)
	h := psharp.NewTestHarness(b.SetupMonitored())
	defer h.Close()
	for _, restart := range []bool{false, true} {
		for k := 1; k <= 3; k++ {
			cache := &rehashCache{h: h}
			s := &crashAt{k: k, restart: restart, cache: cache}
			res := h.Run(psharp.TestConfig{Strategy: s, MaxSteps: b.MaxSteps, Faults: &psharp.FaultConfig{}, StateCache: cache})
			if res.Err != nil || res.Bug != nil || res.Faults.Crashes != 1 {
				t.Fatalf("restart=%v, crash at fault point %d: err %v, bug %v, faults %+v", restart, k, res.Err, res.Bug, res.Faults)
			}
			if cache.visits <= s.visits {
				t.Fatalf("restart=%v, crash at fault point %d: no state hashed after the crash", restart, k)
			}
			if cache.wrong != 0 {
				t.Fatalf("restart=%v, crash at fault point %d: the state hashed at depth %d is not the state rehashed from scratch", restart, k, cache.wrong)
			}
		}
	}
}

// stopper does nothing but take the HaltEvent setup sends it.
type stopper struct{ psharp.StaticBase }

func (*stopper) ConfigureType(sc *psharp.Schema) { sc.Start("Idle") }

// stoppersSetup creates n stoppers and sends each a HaltEvent: scheduled, a
// stopper boots and halts in one step.
func stoppersSetup(n int) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Stopper", func() psharp.Machine { return &stopper{} })
		for i := 0; i < n; i++ {
			if err := r.SendEvent(r.MustCreate("Stopper", nil), &psharp.HaltEvent{}); err != nil {
				panic(err)
			}
		}
	}
}

// crashableWatch schedules the first enabled machine, injects no fault, and
// holds every schedule-level fault query of a stoppersSetup(n) iteration to
// what it must offer: every machine not yet scheduled, each of which halted
// when it was. It also holds the first machine choice to all n machines.
type crashableWatch struct {
	scripted
	n      int
	picked []uint64
	wrong  string
}

func (s *crashableWatch) Decide(c *psharp.Choice, d *psharp.Decision) {
	switch c.Kind {
	case psharp.ChoiceMachine:
		if len(s.picked) == 0 && len(c.Enabled) != s.n && s.wrong == "" {
			s.wrong = fmt.Sprintf("first machine choice offered %v, want all %d machines", c.Enabled, s.n)
		}
		d.Kind, d.Machine = psharp.DecisionSchedule, c.Enabled[0]
		s.picked = append(s.picked, c.Enabled[0].Seq)
	case psharp.ChoiceFault:
		d.Kind = psharp.DecisionFault
		if c.Point != psharp.FaultPointSchedule {
			return
		}
		var want []psharp.MachineID
		for seq := uint64(1); seq <= uint64(s.n); seq++ {
			if !slices.Contains(s.picked, seq) {
				want = append(want, psharp.MachineID{Type: "Stopper", Seq: seq})
			}
		}
		if !slices.Equal(c.Crashable, want) && s.wrong == "" {
			s.wrong = fmt.Sprintf("after %d steps Crashable = %v, want %v", len(s.picked), c.Crashable, want)
		}
	default:
		s.scripted.Decide(c, d)
	}
}

// TestFaultRecycledInstanceCarriesNoSchedulingRecord: a machine's scheduling
// status and fault immunity live on its instance, which the process-wide
// reserve hands from one harness to the next and a harness from one
// iteration to the next. After a TwoPhaseCommitFT harness that made every
// machine immune has closed, a harness with no immune list must offer every
// machine that has not halted to a crash, and a machine that halted in one
// iteration must be ready when it is created in the next.
func TestFaultRecycledInstanceCarriesNoSchedulingRecord(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommitFT", false)
	immune := psharp.NewTestHarness(b.SetupMonitored())
	allImmune := &psharp.FaultConfig{Immune: []string{"FTLog", "FTParticipant", "FTCoordinator"}}
	for i := 0; i < 3; i++ {
		res := immune.Run(psharp.TestConfig{Strategy: &scripted{}, MaxSteps: b.MaxSteps, Faults: allImmune})
		if res.Bug != nil || res.Faults.Total() != 0 {
			t.Fatalf("immune TwoPhaseCommitFT: bug %v, faults %+v", res.Bug, res.Faults)
		}
	}
	immune.Close()

	const n = 8 // more machines than the closed harness parked instances
	h := psharp.NewTestHarness(stoppersSetup(n))
	defer h.Close()
	for i := 0; i < 3; i++ {
		s := &crashableWatch{n: n}
		res := h.Run(psharp.TestConfig{Strategy: s, Faults: &psharp.FaultConfig{}})
		if res.Bug != nil || res.SchedulingPoints != n {
			t.Fatalf("iteration %d: bug %v after %d scheduling points, want none after %d", i, res.Bug, res.SchedulingPoints, n)
		}
		if s.wrong != "" {
			t.Fatalf("iteration %d: %s", i, s.wrong)
		}
	}
}
