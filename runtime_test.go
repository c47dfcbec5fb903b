package psharp_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/psharp-go/psharp"
	"github.com/psharp-go/psharp/sct"
)

// Events shared by the semantics tests.

type evA struct{ psharp.EventBase }

type evB struct{ psharp.EventBase }

type evC struct{ psharp.EventBase }

type evNote struct {
	psharp.EventBase
	Tag string
}

// logged is embedded by the test machines and monitors that append what they
// do to a log their test reads; its StaticBase makes them static.
type logged struct {
	psharp.StaticBase
	log *[]string
}

// note appends a line to the log of m, which embeds logged.
func note(m psharp.Machine, format string, args ...any) {
	l := m.(interface{ logTo() *[]string }).logTo()
	*l = append(*l, fmt.Sprintf(format, args...))
}

func (l *logged) logTo() *[]string { return l.log }

// runOne executes a single serialized iteration with a deterministic
// (first-enabled) schedule.
func runOne(t *testing.T, setup func(*psharp.Runtime)) psharp.IterationResult {
	t.Helper()
	dfs := sct.NewDFS()
	dfs.PrepareIteration(0)
	return psharp.RunTest(setup, psharp.TestConfig{Strategy: dfs, MaxSteps: 10000})
}

// gate defers evA until evB opens it, then notes each evA.
type gate struct{ logged }

func (*gate) ConfigureType(sc *psharp.Schema) {
	sc.Start("Closed").
		Defer(&evA{}).
		OnEventGoto(&evB{}, "Open")
	sc.State("Open").
		OnEventDoM(&evA{}, func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) { note(m, "A") })
}

// ignorer ignores evA and notes each evB.
type ignorer struct{ logged }

func (*ignorer) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").
		Ignore(&evA{}).
		OnEventDoM(&evB{}, func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) { note(m, "B") })
}

// mute handles nothing.
type mute struct{ psharp.StaticBase }

func (*mute) ConfigureType(sc *psharp.Schema) { sc.Start("S") }

// raiser notes each event it handles and raises evC on evA.
type raiser struct{ logged }

func (*raiser) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").
		OnEventDoM(&evA{}, func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			note(m, "A")
			ctx.Raise(&evC{})
		}).
		OnEventDoM(&evB{}, func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) { note(m, "B") }).
		OnEventDoM(&evC{}, func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) { note(m, "C") })
}

// halter notes an evA and halts.
type halter struct{ logged }

func (*halter) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").
		OnEventDoM(&evA{}, func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			note(m, "A")
			ctx.Halt()
		})
}

// exitEntry notes leaving S1 and entering S2 on the note that moves it.
type exitEntry struct{ logged }

func (*exitEntry) ConfigureType(sc *psharp.Schema) {
	sc.Start("S1").
		OnExitM(func(m psharp.Machine, _ *psharp.Context) { note(m, "exit-S1") }).
		OnEventGoto(&evNote{}, "S2")
	sc.State("S2").
		OnEntryM(func(m psharp.Machine, _ *psharp.Context, ev psharp.Event) {
			note(m, "entry-S2:%s", ev.(*evNote).Tag)
		})
}

// doubleBound binds evA twice in one state.
type doubleBound struct{ psharp.StaticBase }

func (*doubleBound) ConfigureType(sc *psharp.Schema) {
	sc.Start("S").
		OnEventDoM(&evA{}, func(psharp.Machine, *psharp.Context, psharp.Event) {}).
		OnEventGoto(&evA{}, "S")
}

// TestDeferHoldsEventUntilStateChange checks the transition-function
// semantics: deferred events stay queued and are delivered after a state
// change, in order.
func TestDeferHoldsEventUntilStateChange(t *testing.T) {
	var log []string
	res := runOne(t, func(r *psharp.Runtime) {
		r.MustRegister("Gate", func() psharp.Machine { return &gate{logged{log: &log}} })
		id := r.MustCreate("Gate", nil)
		for i := 0; i < 2; i++ {
			if err := r.SendEvent(id, &evA{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.SendEvent(id, &evB{}); err != nil {
			t.Fatal(err)
		}
	})
	if res.Bug != nil {
		t.Fatalf("bug: %v", res.Bug)
	}
	if got := strings.Join(log, ","); got != "A,A" {
		t.Fatalf("deferred events delivered %q, want \"A,A\"", got)
	}
}

// TestIgnoreDropsEvents checks that ignored events are silently discarded.
func TestIgnoreDropsEvents(t *testing.T) {
	var log []string
	res := runOne(t, func(r *psharp.Runtime) {
		r.MustRegister("M", func() psharp.Machine { return &ignorer{logged{log: &log}} })
		id := r.MustCreate("M", nil)
		mustSend(t, r, id, &evA{})
		mustSend(t, r, id, &evB{})
		mustSend(t, r, id, &evA{})
	})
	if res.Bug != nil {
		t.Fatalf("bug: %v", res.Bug)
	}
	if got := strings.Join(log, ","); got != "B" {
		t.Fatalf("handled %q, want \"B\"", got)
	}
}

// TestUnhandledEventIsBug checks the Section 6.1 runtime error.
func TestUnhandledEventIsBug(t *testing.T) {
	res := runOne(t, func(r *psharp.Runtime) {
		r.MustRegister("M", func() psharp.Machine { return &mute{} })
		id := r.MustCreate("M", nil)
		mustSend(t, r, id, &evA{})
	})
	if res.Bug == nil || res.Bug.Kind != psharp.BugUnhandledEvent {
		t.Fatalf("want unhandled-event bug, got %v", res.Bug)
	}
}

// TestEnvironmentSendToUnknownMachineIsBug: a send from the environment to a
// machine that does not exist is the iteration's bug under RunTest, the same
// one production Wait returns.
func TestEnvironmentSendToUnknownMachineIsBug(t *testing.T) {
	ghost := psharp.MachineID{Type: "S", Seq: 7}
	res := runOne(t, func(r *psharp.Runtime) {
		r.MustRegister("M", func() psharp.Machine { return &mute{} })
		r.MustCreate("M", nil)
		mustSend(t, r, ghost, &evA{})
	})
	r := psharp.NewRuntime()
	mustSend(t, r, ghost, &evA{})
	prod := r.Wait()
	if prod == nil || !strings.Contains(prod.Error(), "unknown machine S(7)") {
		t.Fatalf("production Wait = %v, want the send to the unknown machine", prod)
	}
	if res.Bug == nil || res.Bug.Kind != psharp.BugPanic || res.Bug.Error() != prod.Error() {
		t.Fatalf("RunTest bug = %v, want %v", res.Bug, prod)
	}
}

// TestRaiseBypassesQueue checks that raised events are handled before
// queued ones.
func TestRaiseBypassesQueue(t *testing.T) {
	var log []string
	res := runOne(t, func(r *psharp.Runtime) {
		r.MustRegister("M", func() psharp.Machine { return &raiser{logged{log: &log}} })
		id := r.MustCreate("M", nil)
		mustSend(t, r, id, &evA{})
		mustSend(t, r, id, &evB{})
	})
	if res.Bug != nil {
		t.Fatalf("bug: %v", res.Bug)
	}
	if got := strings.Join(log, ","); got != "A,C,B" {
		t.Fatalf("order %q, want \"A,C,B\" (raise bypasses the queue)", got)
	}
}

// TestHaltDropsQueueAndLaterSends checks halt semantics.
func TestHaltDropsQueueAndLaterSends(t *testing.T) {
	var log []string
	res := runOne(t, func(r *psharp.Runtime) {
		r.MustRegister("M", func() psharp.Machine { return &halter{logged{log: &log}} })
		id := r.MustCreate("M", nil)
		mustSend(t, r, id, &evA{})
		mustSend(t, r, id, &evA{})
		mustSend(t, r, id, &evA{})
	})
	if res.Bug != nil {
		t.Fatalf("bug: %v", res.Bug)
	}
	if len(log) != 1 {
		t.Fatalf("handled %d events, want 1 (halt drops the queue)", len(log))
	}
}

// TestGotoRunsExitAndEntry checks transition ordering: exit action, then
// the target's entry action with the triggering event as payload.
func TestGotoRunsExitAndEntry(t *testing.T) {
	var log []string
	res := runOne(t, func(r *psharp.Runtime) {
		r.MustRegister("M", func() psharp.Machine { return &exitEntry{logged{log: &log}} })
		id := r.MustCreate("M", nil)
		mustSend(t, r, id, &evNote{Tag: "x"})
	})
	if res.Bug != nil {
		t.Fatalf("bug: %v", res.Bug)
	}
	if got := strings.Join(log, ","); got != "exit-S1,entry-S2:x" {
		t.Fatalf("order %q, want exit then entry with payload", got)
	}
}

// TestDuplicateBindingRejected checks the Section 6.1 ambiguity error at
// configuration time.
func TestDuplicateBindingRejected(t *testing.T) {
	r := psharp.NewRuntime()
	defer r.Stop()
	if err := r.Register("M", func() psharp.Machine { return &doubleBound{} }); err == nil {
		t.Fatal("want a schema validation error for the double binding")
	}
}

// TestTraceRoundTrip checks the trace encoding used for replay files.
func TestTraceRoundTrip(t *testing.T) {
	done := 0
	setup := pingPongSetup(3, &done)
	rep := sct.Run(setup, sct.Options{Strategy: sct.NewRandom(5), Iterations: 1, MaxSteps: 1000})
	var buf strings.Builder
	trace := rep.FirstBugTrace
	if trace == nil {
		// No bug: record a fresh iteration's trace instead.
		res := psharp.RunTest(setup, psharp.TestConfig{Strategy: mustPrepared(sct.NewRandom(5)), MaxSteps: 1000})
		trace = res.Trace
	}
	if err := trace.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := psharp.DecodeTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Len() != trace.Len() {
		t.Fatalf("round trip lost decisions: %d != %d", decoded.Len(), trace.Len())
	}
	res := sct.ReplayTrace(setup, decoded, psharp.TestConfig{MaxSteps: 1000})
	if res.Bug != nil {
		t.Fatalf("replay of a clean trace found a bug: %v", res.Bug)
	}
}

func mustPrepared(s *sct.Random) *sct.Random {
	s.PrepareIteration(0)
	return s
}

func mustSend(t *testing.T, r *psharp.Runtime, id psharp.MachineID, ev psharp.Event) {
	t.Helper()
	if err := r.SendEvent(id, ev); err != nil {
		t.Fatal(err)
	}
}

type evSeq struct {
	psharp.EventBase
	N int
}

// consumer is the one machine of the mailbox tests: its entry action does
// not return until release is closed, so that everything sent meanwhile piles
// up in the mailbox, and it requires evSeq events to arrive in sending order,
// counting them in got. With deferHead it also defers evA until evB takes it
// to Done, which notes each evA and evC in tail.
type consumer struct {
	psharp.StaticBase
	release   chan struct{}
	got       *int
	tail      *[]string
	deferHead bool
}

func (probe *consumer) ConfigureType(sc *psharp.Schema) {
	draining := sc.Start("Draining").
		OnEntryM(func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) { <-m.(*consumer).release }).
		OnEventDoM(&evSeq{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			c := m.(*consumer)
			ctx.Assert(ev.(*evSeq).N == *c.got, "event %d arrived in position %d", ev.(*evSeq).N, *c.got)
			*c.got++
		})
	if !probe.deferHead {
		return
	}
	draining.Defer(&evA{}).OnEventGoto(&evB{}, "Done")
	tail := func(s string) psharp.MachineAction {
		return func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) {
			c := m.(*consumer)
			*c.tail = append(*c.tail, s)
		}
	}
	sc.State("Done").OnEventDoM(&evA{}, tail("a")).OnEventDoM(&evC{}, tail("c"))
}

// backlogSetup starts a production runtime with one consumer.
func backlogSetup(deferHead bool) (r *psharp.Runtime, id psharp.MachineID, c *consumer) {
	c = &consumer{release: make(chan struct{}), got: new(int), tail: new([]string), deferHead: deferHead}
	r = psharp.NewRuntime()
	r.MustRegister("Consumer", func() psharp.Machine {
		m := *c
		return &m
	})
	return r, r.MustCreate("Consumer", nil), c
}

// TestMailboxDrainIsLinear feeds one production-mode machine a backlog of
// 200 000 events it cannot start on (no sender window) and then lets it
// drain. Dequeuing the head of the mailbox is O(1); when it shifted the
// whole backlog down instead, this drain moved 1.4 TB and took minutes.
func TestMailboxDrainIsLinear(t *testing.T) {
	const backlog = 200_000
	r, id, c := backlogSetup(false)
	for i := 0; i < backlog; i++ {
		mustSend(t, r, id, &evSeq{N: i})
	}
	start := time.Now()
	close(c.release)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	if *c.got != backlog {
		t.Fatalf("handled %d events of %d", *c.got, backlog)
	}
	// Linear is tens of milliseconds; the bound only has to tell it from
	// quadratic on a slow, loaded machine.
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("draining a backlog of %d took %v: dequeuing is not O(1)", backlog, d)
	}
}

// TestMailboxKeepsOrderAroundDeferredHead drains a backlog whose head is a
// deferred event: every dequeue takes the event behind it (the shifting
// path), the deferred one stays first, and once the machine changes state
// it is delivered before anything sent later.
func TestMailboxKeepsOrderAroundDeferredHead(t *testing.T) {
	const backlog = 2000
	r, id, c := backlogSetup(true)
	mustSend(t, r, id, &evA{})
	for i := 0; i < backlog; i++ {
		mustSend(t, r, id, &evSeq{N: i})
	}
	mustSend(t, r, id, &evB{})
	mustSend(t, r, id, &evC{})
	close(c.release)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	if *c.got != backlog || strings.Join(*c.tail, "") != "ac" {
		t.Fatalf("handled %d of %d in-order events, then %v; want all of them, then the deferred event before the later one", *c.got, backlog, *c.tail)
	}
}
