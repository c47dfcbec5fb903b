package psharp_test

// Tests for the specification layer: safety monitors (global invariants
// asserted over observed events), hot/cold liveness tracking, monitor
// recycling across pooled harness iterations, and the trace-format name
// validation that keeps monitor- and machine-found bugs replayable.

import (
	"errors"
	"strings"
	"testing"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/internal/protocols"
	"github.com/psharp-go/psharp/sct"
)

type mtOutcome struct {
	psharp.EventBase
	Commit bool
}

type mtReq struct{ psharp.EventBase }

type mtResp struct{ psharp.EventBase }

// mtAgreement is a static-form safety monitor: all observed outcomes must
// agree, the essence of an atomicity specification.
type mtAgreement struct {
	psharp.StaticBase
	seen  bool
	first bool
}

func (*mtAgreement) ConfigureType(sc *psharp.Schema) {
	sc.Start("Observing").
		OnEventDoM(&mtOutcome{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			a := m.(*mtAgreement)
			o := ev.(*mtOutcome)
			if !a.seen {
				a.seen, a.first = true, o.Commit
				return
			}
			ctx.Assert(a.first == o.Commit, "observed outcomes disagree: %v then %v", a.first, o.Commit)
		})
}

// mtResponds is a liveness monitor: hot between a request and its response.
func mtResponds() psharp.Machine { return &respondsSpec{} }

type respondsSpec struct{ psharp.StaticBase }

func (*respondsSpec) ConfigureType(sc *psharp.Schema) {
	sc.Start("Idle").Cold().
		OnEventGoto(&mtReq{}, "Waiting")
	sc.State("Waiting").Hot().
		OnEventGoto(&mtResp{}, "Idle")
}

// outcomeSink ignores outcomes.
type outcomeSink struct{ psharp.StaticBase }

func (*outcomeSink) ConfigureType(sc *psharp.Schema) { sc.Start("S").Ignore(&mtOutcome{}) }

// decider answers a request by sending a coin-flip outcome to the sink,
// machine 1, and halting.
type decider struct{ psharp.StaticBase }

func (*decider) ConfigureType(sc *psharp.Schema) {
	sc.Start("D").
		OnEventDoM(&mtReq{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			// The sink's ID is always 1: it is created first.
			sink := psharp.MachineID{Type: "Sink", Seq: 1}
			ctx.Send(sink, &mtOutcome{Commit: ctx.RandomBool()})
			ctx.Halt()
		})
}

// decidersSetup builds two deciders that each flip a controlled coin and
// send their outcome to a sink; monitors=true attaches the agreement
// monitor. Roughly half of all schedules violate agreement.
func decidersSetup(monitors bool) func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Sink", func() psharp.Machine { return &outcomeSink{} })
		r.MustRegister("Decider", func() psharp.Machine { return &decider{} })
		if monitors {
			r.MustRegisterMonitor("Agreement", func() psharp.Machine { return &mtAgreement{} })
		}
		r.MustCreate("Sink", nil)
		for i := 0; i < 2; i++ {
			d := r.MustCreate("Decider", nil)
			if err := r.SendEvent(d, &mtReq{}); err != nil {
				panic(err)
			}
		}
	}
}

// TestMonitorFindsSafetyViolation checks that a monitor-expressed global
// invariant is found by exploration, attributed to the monitor, and that
// the trace replays the violation deterministically.
func TestMonitorFindsSafetyViolation(t *testing.T) {
	setup := decidersSetup(true)
	rep := sct.Run(setup, sct.Options{
		Strategy:       sct.NewRandom(1),
		Iterations:     200,
		MaxSteps:       200,
		StopOnFirstBug: true,
	})
	if !rep.BugFound() {
		t.Fatal("exploration missed the monitor-expressed agreement violation")
	}
	bug := rep.FirstBug
	if bug.Kind != psharp.BugMonitor || bug.Monitor != "Agreement" {
		t.Fatalf("bug = %v, want a BugMonitor from Agreement", bug)
	}
	res := sct.ReplayTrace(setup, rep.FirstBugTrace, psharp.TestConfig{MaxSteps: 200})
	if res.Bug == nil || res.Bug.Kind != psharp.BugMonitor || res.Bug.Message != bug.Message {
		t.Fatalf("replay did not reproduce the monitor bug: got %v, want %v", res.Bug, bug)
	}
}

// TestMonitorAddsNoTraceDecisions checks the zero-interference guarantee:
// monitors make no scheduling or nondeterminism decisions, so the same seed
// explores byte-identical schedules with and without monitors attached.
func TestMonitorAddsNoTraceDecisions(t *testing.T) {
	hPlain := psharp.NewTestHarness(decidersSetup(false))
	defer hPlain.Close()
	hMon := psharp.NewTestHarness(decidersSetup(true))
	defer hMon.Close()
	for i := 0; i < 25; i++ {
		seed := uint64(i) + 1
		plain := hPlain.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(seed)), MaxSteps: 200})
		mon := hMon.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(seed)), MaxSteps: 200})
		if a, b := encodeTrace(t, plain.Trace), encodeTrace(t, mon.Trace); a != b {
			// The monitored run may stop earlier (the monitor fires at the
			// send, before the sink's assertion would): the monitored trace
			// must then be a prefix of the unmonitored one.
			if !strings.HasPrefix(a, b) {
				t.Fatalf("seed %d: monitored trace is not a prefix of the plain trace:\nplain:\n%s\nmonitored:\n%s", seed, a, b)
			}
		}
	}
}

// TestMonitorRecyclesCleanly checks that a pooled harness with monitors
// behaves exactly like fresh one-shot runs across 25 recycled iterations:
// same bugs, byte-identical traces — i.e. monitor state (instance, schema,
// hot period) leaks nothing between iterations.
func TestMonitorRecyclesCleanly(t *testing.T) {
	setup := decidersSetup(true)
	h := psharp.NewTestHarness(setup)
	defer h.Close()
	sawBug, sawClean := false, false
	for i := 0; i < 25; i++ {
		seed := uint64(i) + 1
		pooled := h.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(seed)), MaxSteps: 200})
		oneshot := psharp.RunTest(setup, psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(seed)), MaxSteps: 200})
		if (pooled.Bug == nil) != (oneshot.Bug == nil) {
			t.Fatalf("seed %d: pooled bug %v, one-shot bug %v", seed, pooled.Bug, oneshot.Bug)
		}
		if pooled.Bug != nil {
			sawBug = true
			if pooled.Bug.Kind != oneshot.Bug.Kind || pooled.Bug.Message != oneshot.Bug.Message ||
				pooled.Bug.Monitor != oneshot.Bug.Monitor {
				t.Fatalf("seed %d: pooled bug %v, one-shot bug %v", seed, pooled.Bug, oneshot.Bug)
			}
		} else {
			sawClean = true
		}
		if a, b := encodeTrace(t, pooled.Trace), encodeTrace(t, oneshot.Trace); a != b {
			t.Fatalf("seed %d: traces diverge:\npooled:\n%s\none-shot:\n%s", seed, a, b)
		}
	}
	if !sawBug || !sawClean {
		t.Fatalf("test program not exercising both outcomes (bug=%v clean=%v); strengthen the setup", sawBug, sawClean)
	}
	// The two machines and the monitor compiled at most once each in the
	// process — re-registration across 25 iterations is binding hits.
	if got := h.SchemaCompiles(); got > 3 {
		t.Errorf("schema compiles across 25 monitored iterations = %d, want at most 2 machines + 1 monitor", got)
	}
}

// livenessSpinSetup builds a program whose monitor goes hot on a request
// observed during setup and can never cool down: nothing sends mtResp. A
// pacer machine keeps the execution alive (self-sends until MaxSteps), so
// the obligation is never discharged and never reaches quiescence.
func livenessSpinSetup() func(*psharp.Runtime) {
	return func(r *psharp.Runtime) {
		r.MustRegister("Pacer", func() psharp.Machine { return &pacer{} })
		r.MustRegisterMonitor("Responds", mtResponds)
		p := r.MustCreate("Pacer", nil)
		if err := r.SendEvent(p, &mtReq{}); err != nil {
			panic(err)
		}
		if err := r.SendEvent(p, &mtOutcome{}); err != nil {
			panic(err)
		}
	}
}

// pacer ignores requests and sends each outcome back to itself.
type pacer struct{ psharp.StaticBase }

func (*pacer) ConfigureType(sc *psharp.Schema) {
	sc.Start("Spin").
		Ignore(&mtReq{}).
		OnEventDoM(&mtOutcome{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ctx.Send(ctx.ID(), ev)
		})
}

// quiet ignores requests.
type quiet struct{ psharp.StaticBase }

func (*quiet) ConfigureType(sc *psharp.Schema) { sc.Start("S").Ignore(&mtReq{}) }

// TestLivenessFairLasso checks the lasso verdict: once the pacer spins alone
// with the monitor hot, the program returns to a global state it was in, on
// a cycle that chose the one enabled machine and injected nothing. That is a
// BugLiveness naming the monitor, the hot state and the cycle, whatever the
// strategy, and it replays deterministically from its trace, needing no
// option.
func TestLivenessFairLasso(t *testing.T) {
	setup := livenessSpinSetup()
	for _, s := range []psharp.Strategy{mustPrepared(sct.NewRandom(1)), &scripted{}} {
		res := psharp.RunTest(setup, psharp.TestConfig{Strategy: s, MaxSteps: 500})
		if res.Bug == nil || res.Bug.Kind != psharp.BugLiveness || res.Bug.Monitor != "Responds" || res.Bug.State != "Waiting" {
			t.Fatalf("%T: bug = %+v, want BugLiveness from Responds in Waiting", s, res.Bug)
		}
		for _, part := range []string{"monitor Responds", `"Waiting"`, "fair cycle of length 1"} {
			if !strings.Contains(res.Bug.Message, part) {
				t.Errorf("%T: message %q does not say %s", s, res.Bug.Message, part)
			}
		}
		replay := sct.ReplayTrace(setup, res.Trace.Clone(), psharp.TestConfig{MaxSteps: 500})
		if replay.Bug == nil || *replay.Bug != *res.Bug {
			t.Fatalf("%T: replay did not reproduce the liveness bug: got %v, want %v", s, replay.Bug, res.Bug)
		}
	}
}

// starveSetup is livenessSpinSetup with a responder beside the pacer: the
// request that heats the monitor is the responder's, which answers it by
// sending itself the response that cools the monitor.
func starveSetup(r *psharp.Runtime) {
	r.MustRegister("Pacer", func() psharp.Machine { return &pacer{} })
	r.MustRegister("Responder", func() psharp.Machine { return &responder{} })
	r.MustRegisterMonitor("Responds", mtResponds)
	p := r.MustCreate("Pacer", nil)
	if err := r.SendEvent(p, &mtOutcome{}); err != nil {
		panic(err)
	}
	if err := r.SendEvent(r.MustCreate("Responder", nil), &mtReq{}); err != nil {
		panic(err)
	}
}

// responder answers a request by sending itself the response, which it
// ignores.
type responder struct{ psharp.StaticBase }

func (*responder) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").
		OnEventDoM(&mtReq{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) { ctx.Send(ctx.ID(), &mtResp{}) }).
		Ignore(&mtResp{})
}

// TestLivenessStarvedCycleNotReported: a schedule that runs only the pacer
// returns to the same state with the monitor hot over and over, but every
// such cycle leaves the enabled responder unscheduled — a starving
// scheduler, not a program that cannot respond. No bug, under that schedule
// or a random one.
func TestLivenessStarvedCycleNotReported(t *testing.T) {
	for _, s := range []psharp.Strategy{&scripted{}, mustPrepared(sct.NewRandom(1))} {
		res := psharp.RunTest(starveSetup, psharp.TestConfig{Strategy: s, MaxSteps: 300})
		if res.Bug != nil || res.Err != nil || !res.BoundReached {
			t.Fatalf("%T: bug %v, err %v, bound reached %v; want a clean run to the bound", s, res.Bug, res.Err, res.BoundReached)
		}
	}
}

// pinger answers each request with a response and each response with a
// request, to itself: the monitor heats and cools in turn, forever.
type pinger struct{ psharp.StaticBase }

func (*pinger) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").
		OnEventDoM(&mtReq{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) { ctx.Send(ctx.ID(), &mtResp{}) }).
		OnEventDoM(&mtResp{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) { ctx.Send(ctx.ID(), &mtReq{}) })
}

// TestLivenessRecooledCycleNotReported: the pinger's state recurs every two
// decisions with the monitor hot, but around each cycle the monitor cooled
// and heated again — every request is answered.
func TestLivenessRecooledCycleNotReported(t *testing.T) {
	setup := func(r *psharp.Runtime) {
		r.MustRegister("Pinger", func() psharp.Machine { return &pinger{} })
		r.MustRegisterMonitor("Responds", mtResponds)
		if err := r.SendEvent(r.MustCreate("Pinger", nil), &mtReq{}); err != nil {
			panic(err)
		}
	}
	res := psharp.RunTest(setup, psharp.TestConfig{Strategy: &scripted{}, MaxSteps: 300})
	if res.Bug != nil || res.Err != nil || !res.BoundReached {
		t.Fatalf("bug %v, err %v, bound reached %v; want a clean run to the bound", res.Bug, res.Err, res.BoundReached)
	}
}

// grower's queue of ticks grows by one every step: it handles a tick by
// sending itself two, so without faults no state of it ever recurs.
type grower struct{ psharp.StaticBase }

func (*grower) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").
		OnEntryM(func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) { ctx.Send(ctx.ID(), &mtOutcome{}) }).
		OnEventDoM(&mtOutcome{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ctx.Send(ctx.ID(), ev)
			ctx.Send(ctx.ID(), ev)
		})
}

// dropAt is scripted, except that its k-th send-level fault query drops the
// message.
type dropAt struct {
	scripted
	k, queries int
}

func (s *dropAt) Decide(c *psharp.Choice, d *psharp.Decision) {
	if c.Kind == psharp.ChoiceFault && c.Point == psharp.FaultPointSend {
		if s.queries++; s.queries == s.k {
			d.Kind, d.Fault = psharp.DecisionFault, psharp.FaultAction{Kind: psharp.FaultDrop}
			return
		}
	}
	s.scripted.Decide(c, d)
}

// growerSetup leaves a request with a sink that ignores it, so the monitor
// is hot for good, beside a grower, the one machine that stays enabled.
func growerSetup(r *psharp.Runtime) {
	r.MustRegister("Sink", func() psharp.Machine { return &quiet{} })
	r.MustRegister("Grower", func() psharp.Machine { return &grower{} })
	r.MustRegisterMonitor("Responds", mtResponds)
	if err := r.SendEvent(r.MustCreate("Sink", nil), &mtReq{}); err != nil {
		panic(err)
	}
	r.MustCreate("Grower", nil)
}

// TestLivenessFaultedCycleNotReported: the grower's states recur only by
// way of a fault — a dropped tick leaves the queue as long as a round
// before, a crash with restart starts the machine over — and a cycle that
// needs a fault cannot repeat forever on a finite budget. The monitor is hot
// throughout and the grower is the one enabled machine, so the fault is all
// that keeps the cycles from being reported.
func TestLivenessFaultedCycleNotReported(t *testing.T) {
	for _, tc := range []struct {
		name  string
		s     psharp.Strategy
		fault func(psharp.FaultStats) int
	}{
		{"drop", &dropAt{k: 7}, func(f psharp.FaultStats) int { return f.Drops }},
		{"crash", &scripted{declines: 9, crash: &psharp.FaultAction{Kind: psharp.FaultCrash, Machine: psharp.MachineRef{Seq: 2}, Restart: true}},
			func(f psharp.FaultStats) int { return f.Crashes }},
	} {
		res := psharp.RunTest(growerSetup, psharp.TestConfig{Strategy: tc.s, MaxSteps: 60, Faults: &psharp.FaultConfig{}})
		if res.Bug != nil || res.Err != nil || !res.BoundReached {
			t.Fatalf("%s: bug %v, err %v, bound reached %v; want a clean run to the bound", tc.name, res.Bug, res.Err, res.BoundReached)
		}
		if n := tc.fault(res.Faults); n != 1 {
			t.Fatalf("%s: %d faults injected (%+v)", tc.name, n, res.Faults)
		}
	}
}

// TestLivenessGrowingStateMissed records the liveness bugs a lasso cannot
// show. The grower's obligation is never met, but without a fault it never
// returns to a state it was in — its queue lengthens by a tick a step — so
// no lasso closes, and it never quiesces: the run reaches the bound clean,
// under any strategy. The temperature threshold this check replaced
// reported it. A check that reports it must change this test and the
// liveness caveats in doc.go and sct/doc.go together.
func TestLivenessGrowingStateMissed(t *testing.T) {
	for _, s := range []psharp.Strategy{&scripted{}, mustPrepared(sct.NewRandom(1))} {
		res := psharp.RunTest(growerSetup, psharp.TestConfig{Strategy: s, MaxSteps: 300})
		if res.Bug != nil || res.Err != nil || !res.BoundReached {
			t.Fatalf("%T: bug %v, err %v, bound reached %v; want the miss: a clean run to the bound", s, res.Bug, res.Err, res.BoundReached)
		}
	}
}

// TestLivenessUnhashableStateUnchecked: a program with a monitor that
// declares a hot state is hashed while the monitor is hot, and a machine
// holding a func has no hash. That stops the search for lassos, not the
// iteration: the result names the machine and the field once, in
// LivenessUnchecked, and the run goes on to its end — here quiescence with
// the monitor hot, which is still a BugLiveness. With a state cache, which
// cannot work without the hash, the iteration ends with the *StateError.
func TestLivenessUnhashableStateUnchecked(t *testing.T) {
	setup := func(r *psharp.Runtime) {
		r.MustRegister("Holder", func() psharp.Machine { return &funcHolder{fn: func() {}} })
		r.MustRegisterMonitor("Responds", mtResponds)
		if err := r.SendEvent(r.MustCreate("Holder", nil), &mtReq{}); err != nil {
			panic(err)
		}
	}
	h := psharp.NewTestHarness(setup)
	defer h.Close()
	dfs := sct.NewDFS()
	var se *psharp.StateError
	for i := 0; i < 2 && dfs.PrepareIteration(i); i++ {
		res := h.Run(psharp.TestConfig{Strategy: dfs, MaxSteps: 100})
		if !errors.As(res.LivenessUnchecked, &se) || res.Err != nil {
			t.Fatalf("run %d: unchecked %v, err %v; want a *StateError in LivenessUnchecked and no Err", i, res.LivenessUnchecked, res.Err)
		}
		if msg := se.Error(); !strings.Contains(msg, "Holder") || !strings.Contains(msg, "fn") {
			t.Errorf("StateError %q does not name the machine and the field", msg)
		}
		if res.Bug == nil || res.Bug.Kind != psharp.BugLiveness || !strings.Contains(res.Bug.Message, "quiesced") {
			t.Fatalf("run %d: bug %v; want the hot-at-quiescence BugLiveness", i, res.Bug)
		}
	}
	rep := sct.Run(setup, sct.Options{Strategy: sct.NewRandom(1), Iterations: 5, MaxSteps: 100})
	if !errors.As(rep.LivenessUnchecked, &se) || rep.Err != nil || rep.Iterations != 5 {
		t.Fatalf("sct.Run: unchecked %v, err %v, %d iterations; want the *StateError once and all 5 run", rep.LivenessUnchecked, rep.Err, rep.Iterations)
	}
	cached := sct.NewDFS()
	cached.PrepareIteration(0)
	res := psharp.RunTest(setup, psharp.TestConfig{Strategy: cached, MaxSteps: 100, StateCache: newOwnerCache()})
	if !errors.As(res.Err, &se) || res.Bug != nil || res.LivenessUnchecked != nil {
		t.Fatalf("with a cache: err %v, bug %v, unchecked %v; want a *StateError in Err alone", res.Err, res.Bug, res.LivenessUnchecked)
	}
}

// funcHolder keeps a func in its state and ignores requests.
type funcHolder struct {
	psharp.StaticBase
	fn func()
}

func (*funcHolder) ConfigureType(sc *psharp.Schema) { sc.Start("S").Ignore(&mtReq{}) }

// TestLivenessHotAtQuiescence checks the finite-execution rule: a program
// that terminates while a monitor is still hot has violated the liveness
// specification (nothing can discharge the obligation anymore).
func TestLivenessHotAtQuiescence(t *testing.T) {
	setup := func(r *psharp.Runtime) {
		r.MustRegister("Quiet", func() psharp.Machine { return &quiet{} })
		r.MustRegisterMonitor("Responds", mtResponds)
		q := r.MustCreate("Quiet", nil)
		if err := r.SendEvent(q, &mtReq{}); err != nil {
			panic(err)
		}
	}
	res := psharp.RunTest(setup, psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(1)), MaxSteps: 100})
	if res.Bug == nil || res.Bug.Kind != psharp.BugLiveness {
		t.Fatalf("bug = %v, want BugLiveness at quiescence", res.Bug)
	}
	if !strings.Contains(res.Bug.Message, "quiesced") {
		t.Errorf("message %q does not mention quiescence", res.Bug.Message)
	}
}

// rogue is a monitor that sends, which monitors must not.
type rogue struct{ psharp.StaticBase }

func (*rogue) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").
		OnEventDoM(&mtReq{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			ctx.Send(psharp.MachineID{Type: "Quiet", Seq: 1}, &mtResp{})
		})
}

// TestMonitorForbiddenOperations checks that a monitor action calling a
// machine-only operation fails the iteration as a monitor violation rather
// than corrupting the program.
func TestMonitorForbiddenOperations(t *testing.T) {
	setup := func(r *psharp.Runtime) {
		r.MustRegister("Quiet", func() psharp.Machine { return &quiet{} })
		r.MustRegisterMonitor("Rogue", func() psharp.Machine { return &rogue{} })
		q := r.MustCreate("Quiet", nil)
		if err := r.SendEvent(q, &mtReq{}); err != nil {
			panic(err)
		}
	}
	res := psharp.RunTest(setup, psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(1)), MaxSteps: 100})
	if res.Bug == nil || res.Bug.Kind != psharp.BugMonitor || res.Bug.Monitor != "Rogue" {
		t.Fatalf("bug = %v, want BugMonitor from Rogue", res.Bug)
	}
	if !strings.Contains(res.Bug.Message, "passive observers") {
		t.Errorf("message %q does not explain the restriction", res.Bug.Message)
	}
}

// TestMonitorInProductionRuntime checks that monitors observe and fail the
// concurrent production runtime too, not just the serialized testing one.
func TestMonitorInProductionRuntime(t *testing.T) {
	r := psharp.NewRuntime()
	r.MustRegister("Sink", func() psharp.Machine { return &outcomeSink{} })
	r.MustRegisterMonitor("Agreement", func() psharp.Machine { return &mtAgreement{} })
	sink := r.MustCreate("Sink", nil)
	if err := r.SendEvent(sink, &mtOutcome{Commit: true}); err != nil {
		t.Fatal(err)
	}
	if err := r.SendEvent(sink, &mtOutcome{Commit: false}); err != nil {
		t.Fatal(err)
	}
	err := r.Wait()
	r.Stop()
	if err == nil {
		t.Fatal("production runtime did not report the monitor violation")
	}
	bug, ok := err.(*psharp.Bug)
	if !ok || bug.Kind != psharp.BugMonitor || bug.Monitor != "Agreement" {
		t.Fatalf("err = %v, want BugMonitor from Agreement", err)
	}
}

// streamer sends itself an outcome and the evSpin back until its count runs
// out, and ignores the outcomes.
type streamer struct{ psharp.StaticBase }

func (*streamer) ConfigureType(sc *psharp.Schema) {
	sc.Start("Echoing").
		OnEventDoM(&evSpin{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			e := ev.(*evSpin)
			if e.Left == 0 {
				ctx.Halt()
				return
			}
			e.Left--
			ctx.Send(ctx.ID(), &mtOutcome{Commit: true})
			ctx.Send(ctx.ID(), e)
		}).
		Ignore(&mtOutcome{})
}

// TestMonitorRegisterDuringProductionSends covers the SetupMonitored
// pattern on the concurrent production runtime: machines created by setup
// are already running and sending when the monitors register afterwards, so
// registration and observation must be mutually exclusive (run under -race
// in CI's liveness suite).
func TestMonitorRegisterDuringProductionSends(t *testing.T) {
	r := psharp.NewRuntime()
	r.MustRegister("Echo", func() psharp.Machine { return &streamer{} })
	e := r.MustCreate("Echo", nil)
	if err := r.SendEvent(e, &evSpin{Left: 500}); err != nil {
		t.Fatal(err)
	}
	// The echo machine is already streaming sends; register mid-flight.
	r.MustRegisterMonitor("Agreement", func() psharp.Machine { return &mtAgreement{} })
	if err := r.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	r.Stop()
}

// hotMachine is a machine with a hot state, which only monitors may have.
type hotMachine struct{ psharp.StaticBase }

func (*hotMachine) ConfigureType(sc *psharp.Schema) { sc.Start("S").Hot().Ignore(&mtReq{}) }

// TestHotStatesRejectedOnMachines checks that hot/cold liveness annotations
// are monitor-only: a machine schema carrying one is rejected at Register.
func TestHotStatesRejectedOnMachines(t *testing.T) {
	r := psharp.NewRuntime()
	err := r.Register("Hotty", func() psharp.Machine { return &hotMachine{} })
	if err == nil || !strings.Contains(err.Error(), "monitor states") {
		t.Fatalf("Register accepted a hot machine state: err = %v", err)
	}
}

// closureResponds is mtResponds in the closure form, which monitors may not
// use.
func closureResponds() psharp.Machine {
	return psharp.MachineFunc(func(sc *psharp.Schema) {
		sc.Start("Idle").Cold().OnEventGoto(&mtReq{}, "Waiting")
		sc.State("Waiting").Hot().OnEventGoto(&mtResp{}, "Idle")
	})
}

// TestMonitorClosureFormRefused: RegisterMonitor refuses a closure-form
// monitor with an error naming it — not a panic, and binding nothing — on a
// fresh Runtime, in a harness's setup, and in a harness whose setup
// alternates the two forms under one name, whose static iterations still
// attach the monitor and run clean.
func TestMonitorClosureFormRefused(t *testing.T) {
	refused := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), `monitor "Responds"`) && strings.Contains(err.Error(), "StaticMachine")
	}
	r := psharp.NewRuntime()
	if err := r.RegisterMonitor("Responds", closureResponds); !refused(err) {
		t.Fatalf("fresh Runtime: err = %v, want the closure-form monitor refused by name", err)
	}
	if err := r.RegisterMonitor("Responds", mtResponds); err != nil {
		t.Fatalf("fresh Runtime: the static form after the refused closure form: %v", err)
	}
	r.Stop()

	for _, alternate := range []bool{false, true} {
		var static bool
		var err error
		spin := spinSetup(8)
		h := psharp.NewTestHarness(func(r *psharp.Runtime) {
			spin(r)
			if static {
				err = r.RegisterMonitor("Responds", mtResponds)
				if again := r.RegisterMonitor("Responds", mtResponds); err == nil && !strings.Contains(again.Error(), "registered twice") {
					err = again // the first registration did not attach it
				}
			} else {
				err = r.RegisterMonitor("Responds", closureResponds)
			}
		})
		for i := 0; i < 4; i++ {
			static = alternate && i%2 == 1
			res := h.Run(psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(uint64(i) + 1))})
			if static && err != nil || !static && !refused(err) {
				t.Fatalf("alternate=%v iteration %d (static=%v): RegisterMonitor err = %v", alternate, i, static, err)
			}
			if res.Bug != nil || res.Err != nil {
				t.Fatalf("alternate=%v iteration %d (static=%v): bug %v, err %v", alternate, i, static, res.Bug, res.Err)
			}
		}
		h.Close()
	}
}

// deferringSpec is a monitor that defers, which monitors cannot.
type deferringSpec struct{ psharp.StaticBase }

func (*deferringSpec) ConfigureType(sc *psharp.Schema) { sc.Start("S").Defer(&mtReq{}) }

// TestMonitorDeferRejected checks that Defer bindings are rejected in
// monitor schemas: monitors have no queue to defer into.
func TestMonitorDeferRejected(t *testing.T) {
	r := psharp.NewRuntime()
	err := r.RegisterMonitor("Deferred", func() psharp.Machine { return &deferringSpec{} })
	if err == nil || !strings.Contains(err.Error(), "no queue") {
		t.Fatalf("RegisterMonitor accepted a Defer binding: err = %v", err)
	}
}

// TestMonitorAllocationCap extends the steady-state allocation regression to
// the specification layer: attaching a static monitor to the pooled spin
// harness must add at most 5 allocations per iteration (one logic value from
// the factory plus pool bookkeeping).
func TestMonitorAllocationCap(t *testing.T) {
	base, _ := harnessAllocs(t, 32)

	spin := spinSetup(32)
	setup := func(r *psharp.Runtime) {
		spin(r)
		r.MustRegisterMonitor("Responds", mtResponds)
	}
	h := psharp.NewTestHarness(setup)
	defer h.Close()
	strategy := sct.NewRandom(1)
	cfg := psharp.TestConfig{Strategy: strategy}
	for i := 0; i < 5; i++ {
		strategy.PrepareIteration(i)
		h.Run(cfg)
	}
	iter := 5
	monitored := testing.AllocsPerRun(100, func() {
		strategy.PrepareIteration(iter)
		iter++
		h.Run(cfg)
	})
	if monitored > base+5 {
		t.Errorf("monitored steady state = %.1f allocs/iteration vs %.1f unmonitored: monitor adds %.1f, want <= 5",
			monitored, base, monitored-base)
	}
	t.Logf("allocs/iteration: unmonitored %.1f, monitored %.1f", base, monitored)
}

// protocolAllocs measures steady-state allocations per iteration for a
// protocol setup through a warmed pooled harness.
func protocolAllocs(setup func(*psharp.Runtime), maxSteps int) float64 {
	h := psharp.NewTestHarness(setup)
	defer h.Close()
	strategy := sct.NewRandom(1)
	cfg := psharp.TestConfig{Strategy: strategy, MaxSteps: maxSteps}
	iter := 0
	for ; iter < 5; iter++ {
		strategy.PrepareIteration(iter)
		h.Run(cfg)
	}
	return testing.AllocsPerRun(100, func() {
		strategy.PrepareIteration(iter)
		iter++
		h.Run(cfg)
	})
}

// TestProtocolMonitorAllocationCap gates the specification layer's cost on
// a real protocol: attaching the TwoPhaseCommit atomicity monitor must add
// at most 5 allocs/iteration in the pooled-harness steady state (measured
// ~3: the monitor's logic struct, its outcome map, and one map bucket; the
// schema is compiled once per name and the instance recycled).
func TestProtocolMonitorAllocationCap(t *testing.T) {
	b := protocols.MustByName("TwoPhaseCommit", true)
	plain := protocolAllocs(b.Setup, b.MaxSteps)
	monitored := protocolAllocs(b.SetupMonitored(), b.MaxSteps)
	if monitored > plain+5 {
		t.Errorf("TwoPhaseCommit monitored = %.1f allocs/iteration vs %.1f plain: monitor adds %.1f, want <= 5",
			monitored, plain, monitored-plain)
	}
	t.Logf("TwoPhaseCommit allocs/iteration: plain %.1f, monitored %.1f", plain, monitored)
}
