package psharp_test

import (
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

// recorder appends tags of every note it receives.
type recorder struct{ log *[]string }

func (m *recorder) Configure(sc *psharp.Schema) {
	sc.Start("Recording").
		OnEventDo(&evNote{}, func(ctx *psharp.Context, ev psharp.Event) {
			*m.log = append(*m.log, ev.(*evNote).Tag)
		})
}

// runOne executes a single serialized iteration with a deterministic
// (first-enabled) schedule.
func runOne(t *testing.T, setup func(*psharp.Runtime)) psharp.IterationResult {
	t.Helper()
	dfs := sct.NewDFS()
	dfs.PrepareIteration(0)
	return psharp.RunTest(setup, psharp.TestConfig{Strategy: dfs, MaxSteps: 10000})
}

// TestDeferHoldsEventUntilStateChange checks the transition-function
// semantics: deferred events stay queued and are delivered after a state
// change, in order.
func TestDeferHoldsEventUntilStateChange(t *testing.T) {
	var log []string
	type gate struct{ log *[]string }
	configure := func(g *gate, sc *psharp.Schema) {
		sc.Start("Closed").
			Defer(&evA{}).
			OnEventGoto(&evB{}, "Open")
		sc.State("Open").
			OnEventDo(&evA{}, func(ctx *psharp.Context, ev psharp.Event) {
				*g.log = append(*g.log, "A")
			})
	}
	res := runOne(t, func(r *psharp.Runtime) {
		r.MustRegister("Gate", func() psharp.Machine {
			g := &gate{log: &log}
			return psharp.MachineFunc(func(sc *psharp.Schema) { configure(g, sc) })
		})
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
	handled := 0
	res := runOne(t, func(r *psharp.Runtime) {
		r.MustRegister("M", func() psharp.Machine {
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("S").
					Ignore(&evA{}).
					OnEventDo(&evB{}, func(ctx *psharp.Context, ev psharp.Event) { handled++ })
			})
		})
		id := r.MustCreate("M", nil)
		mustSend(t, r, id, &evA{})
		mustSend(t, r, id, &evB{})
		mustSend(t, r, id, &evA{})
	})
	if res.Bug != nil {
		t.Fatalf("bug: %v", res.Bug)
	}
	if handled != 1 {
		t.Fatalf("handled = %d, want 1", handled)
	}
}

// TestUnhandledEventIsBug checks the Section 6.1 runtime error.
func TestUnhandledEventIsBug(t *testing.T) {
	res := runOne(t, func(r *psharp.Runtime) {
		r.MustRegister("M", func() psharp.Machine {
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("S")
			})
		})
		id := r.MustCreate("M", nil)
		mustSend(t, r, id, &evA{})
	})
	if res.Bug == nil || res.Bug.Kind != psharp.BugUnhandledEvent {
		t.Fatalf("want unhandled-event bug, got %v", res.Bug)
	}
}

// TestRaiseBypassesQueue checks that raised events are handled before
// queued ones.
func TestRaiseBypassesQueue(t *testing.T) {
	var log []string
	res := runOne(t, func(r *psharp.Runtime) {
		r.MustRegister("M", func() psharp.Machine {
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("S").
					OnEventDo(&evA{}, func(ctx *psharp.Context, ev psharp.Event) {
						log = append(log, "A")
						ctx.Raise(&evC{})
					}).
					OnEventDo(&evB{}, func(ctx *psharp.Context, ev psharp.Event) {
						log = append(log, "B")
					}).
					OnEventDo(&evC{}, func(ctx *psharp.Context, ev psharp.Event) {
						log = append(log, "C")
					})
			})
		})
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
	handled := 0
	res := runOne(t, func(r *psharp.Runtime) {
		r.MustRegister("M", func() psharp.Machine {
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("S").
					OnEventDo(&evA{}, func(ctx *psharp.Context, ev psharp.Event) {
						handled++
						ctx.Halt()
					})
			})
		})
		id := r.MustCreate("M", nil)
		mustSend(t, r, id, &evA{})
		mustSend(t, r, id, &evA{})
		mustSend(t, r, id, &evA{})
	})
	if res.Bug != nil {
		t.Fatalf("bug: %v", res.Bug)
	}
	if handled != 1 {
		t.Fatalf("handled = %d, want 1 (halt drops the queue)", handled)
	}
}

// TestGotoRunsExitAndEntry checks transition ordering: exit action, then
// the target's entry action with the triggering event as payload.
func TestGotoRunsExitAndEntry(t *testing.T) {
	var log []string
	res := runOne(t, func(r *psharp.Runtime) {
		r.MustRegister("M", func() psharp.Machine {
			return psharp.MachineFunc(func(sc *psharp.Schema) {
				sc.Start("S1").
					OnExit(func(ctx *psharp.Context) { log = append(log, "exit-S1") }).
					OnEventGoto(&evNote{}, "S2")
				sc.State("S2").
					OnEntry(func(ctx *psharp.Context, ev psharp.Event) {
						log = append(log, "entry-S2:"+ev.(*evNote).Tag)
					})
			})
		})
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
	r.MustRegister("M", func() psharp.Machine {
		return psharp.MachineFunc(func(sc *psharp.Schema) {
			sc.Start("S").
				OnEventDo(&evA{}, func(ctx *psharp.Context, ev psharp.Event) {}).
				OnEventGoto(&evA{}, "S")
		})
	})
	if _, err := r.CreateMachine("M", nil); err == nil {
		t.Fatal("want a schema validation error for the double binding")
	}
	r.Stop()
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

// backlogSetup starts a production runtime with one machine whose schema
// gets two actions: hold, an entry action that does not return until release
// is closed, so that everything sent meanwhile piles up in the mailbox, and
// handle, which requires evSeq events to arrive in sending order. got counts
// the events handled.
func backlogSetup(schema func(sc *psharp.Schema, hold, handle psharp.Action)) (r *psharp.Runtime, id psharp.MachineID, release chan struct{}, got *int) {
	release, got = make(chan struct{}), new(int)
	hold := func(*psharp.Context, psharp.Event) { <-release }
	handle := func(ctx *psharp.Context, ev psharp.Event) {
		ctx.Assert(ev.(*evSeq).N == *got, "event %d arrived in position %d", ev.(*evSeq).N, *got)
		*got++
	}
	r = psharp.NewRuntime()
	r.MustRegister("Consumer", func() psharp.Machine {
		return psharp.MachineFunc(func(sc *psharp.Schema) { schema(sc, hold, handle) })
	})
	return r, r.MustCreate("Consumer", nil), release, got
}

// TestMailboxDrainIsLinear feeds one production-mode machine a backlog of
// 200 000 events it cannot start on (no sender window) and then lets it
// drain. Dequeuing the head of the mailbox is O(1); when it shifted the
// whole backlog down instead, this drain moved 1.4 TB and took minutes.
func TestMailboxDrainIsLinear(t *testing.T) {
	const backlog = 200_000
	r, id, release, got := backlogSetup(func(sc *psharp.Schema, hold, handle psharp.Action) {
		sc.Start("Draining").OnEntry(hold).OnEventDo(&evSeq{}, handle)
	})
	for i := 0; i < backlog; i++ {
		mustSend(t, r, id, &evSeq{N: i})
	}
	start := time.Now()
	close(release)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	if *got != backlog {
		t.Fatalf("handled %d events of %d", *got, backlog)
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
	var tail []string
	r, id, release, got := backlogSetup(func(sc *psharp.Schema, hold, handle psharp.Action) {
		sc.Start("Draining").
			OnEntry(hold).
			Defer(&evA{}).
			OnEventDo(&evSeq{}, handle).
			OnEventGoto(&evB{}, "Done")
		sc.State("Done").
			OnEventDo(&evA{}, func(*psharp.Context, psharp.Event) { tail = append(tail, "a") }).
			OnEventDo(&evC{}, func(*psharp.Context, psharp.Event) { tail = append(tail, "c") })
	})
	mustSend(t, r, id, &evA{})
	for i := 0; i < backlog; i++ {
		mustSend(t, r, id, &evSeq{N: i})
	}
	mustSend(t, r, id, &evB{})
	mustSend(t, r, id, &evC{})
	close(release)
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	if *got != backlog || strings.Join(tail, "") != "ac" {
		t.Fatalf("handled %d of %d in-order events, then %v; want all of them, then the deferred event before the later one", *got, backlog, tail)
	}
}
