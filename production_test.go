package psharp_test

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psharp-go/psharp"
)

// What the production runtime promises, asserted: a machine owns a goroutine
// only while its mailbox has work (TestProduction*), and a machine woken from
// inside a handler is always started, on the waker's goroutine if that has
// nothing else to do (TestActivation*). CI runs both families repeatedly under
// the race detector, which is also what checks that one activation of a
// machine sees the writes of the one before it.

type evKick struct{ psharp.EventBase }

type evNum struct {
	psharp.EventBase
	From psharp.MachineID
	N    int
}

type evTarget struct {
	psharp.EventBase
	ID psharp.MachineID
}

// goid names the calling goroutine ("goroutine 17 [running]: ...").
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// drained waits for the goroutine count to come back to baseline: a
// goroutine whose last handler has let Wait go may still be returning.
func drained(t *testing.T, baseline int, when string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before the runtime existed\n%s",
				when, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func mustWait(t *testing.T, r *psharp.Runtime) {
	t.Helper()
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
}

// oneState is a static machine type with one state, Run, whose bindings its
// configure field makes: the same on every instance, over state the test
// shares with all of them.
type oneState struct {
	psharp.StaticBase
	configure func(*psharp.StateBuilder)
}

func (probe *oneState) ConfigureType(sc *psharp.Schema) { probe.configure(sc.Start("Run")) }

// register declares a oneState machine type.
func register(r *psharp.Runtime, name string, configure func(*psharp.StateBuilder)) {
	r.MustRegister(name, func() psharp.Machine { return &oneState{configure: configure} })
}

// TestProductionQuiescentRuntimeOwnsNoGoroutine: after Wait — and without
// Stop — nothing of the runtime is left running, however many machines it
// has, before and after they have handled something.
func TestProductionQuiescentRuntimeOwnsNoGoroutine(t *testing.T) {
	const machines = 10_000
	baseline := runtime.NumGoroutine()
	var handled atomic.Int64
	r := psharp.NewRuntime()
	register(r, "Idle", func(s *psharp.StateBuilder) {
		s.OnEventDoM(&evKick{}, func(psharp.Machine, *psharp.Context, psharp.Event) { handled.Add(1) })
	})
	ids := make([]psharp.MachineID, machines)
	for i := range ids {
		ids[i] = r.MustCreate("Idle", nil)
	}
	mustWait(t, r)
	drained(t, baseline, "after creating idle machines")
	for _, id := range ids {
		mustSend(t, r, id, &evKick{})
	}
	mustWait(t, r)
	if handled.Load() != machines {
		t.Fatalf("Wait returned with %d of %d events handled", handled.Load(), machines)
	}
	drained(t, baseline, "after every machine handled an event")
	if r.NumMachines() != machines {
		t.Fatalf("NumMachines = %d, want %d", r.NumMachines(), machines)
	}
}

// TestProductionQuiescentRuntimeIsCollectable: no parked goroutine keeps a
// quiescent runtime's machines alive once the program drops it, Stop or not.
func TestProductionQuiescentRuntimeIsCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		state := new([64]int) // reachable from the machine's handler only
		runtime.SetFinalizer(state, func(*[64]int) { close(collected) })
		r := psharp.NewRuntime()
		register(r, "M", func(s *psharp.StateBuilder) {
			s.OnEventDoM(&evKick{}, func(psharp.Machine, *psharp.Context, psharp.Event) { state[0]++ })
		})
		mustSend(t, r, r.MustCreate("M", nil), &evKick{})
		mustWait(t, r)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a quiescent runtime nobody references was not collected")
		}
	}
}

// TestProductionStopDuringSendStorm stops the runtime while four goroutines
// are sending into it and machines are relaying between each other: Stop and
// Wait return, later sends are harmless, and every goroutine goes away.
func TestProductionStopDuringSendStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()
	r := psharp.NewRuntime()
	var next [4]psharp.MachineID
	register(r, "Relay", func(s *psharp.StateBuilder) {
		s.OnEventDoM(&evNum{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			if n := ev.(*evNum).N; n > 0 {
				ctx.Send(next[n%len(next)], &evNum{N: n - 1})
			}
		})
	})
	for i := range next {
		next[i] = r.MustCreate("Relay", nil)
	}
	mustWait(t, r)
	var stop atomic.Bool
	var senders sync.WaitGroup
	for g := range next {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := 0; !stop.Load(); i++ {
				r.SendEvent(next[(g+i)%len(next)], &evNum{N: 5})
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	r.Stop()
	if err := r.Wait(); err != nil {
		t.Fatalf("Wait after Stop: %v", err)
	}
	time.Sleep(5 * time.Millisecond) // the storm goes on against a stopped runtime
	stop.Store(true)
	senders.Wait()
	drained(t, baseline, "after Stop in a send storm")
	if sends := r.Metrics().Sends; sends == 0 {
		t.Fatal("the storm sent nothing")
	}
}

// fifoSink checks that each sender's evNum events arrive in order, once
// each, and never two handlers at a time; every pauseEvery events it spends
// a while in a state deferring them. It counts into the test's variables.
type fifoSink struct {
	psharp.StaticBase
	pauseEvery int
	inHandler  *atomic.Int32
	got        *int
	nextFrom   map[psharp.MachineID]int
	pauses     *int
}

func (*fifoSink) ConfigureType(sc *psharp.Schema) {
	sc.Start("Open").
		OnEventDoM(&evNum{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			s := m.(*fifoSink)
			ctx.Assert(s.inHandler.Add(1) == 1, "two handlers of the sink at once")
			e := ev.(*evNum)
			ctx.Assert(e.N == s.nextFrom[e.From], "%s: event %d arrived in position %d", e.From, e.N, s.nextFrom[e.From])
			s.nextFrom[e.From]++
			if *s.got++; *s.got%s.pauseEvery == 0 {
				ctx.Goto("Paused")
			}
			s.inHandler.Add(-1)
		})
	sc.State("Paused").
		OnEntryM(func(m psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			*m.(*fifoSink).pauses++
			ctx.Send(ctx.ID(), &evKick{}) // queued behind what is waiting already
		}).
		Defer(&evNum{}).
		OnEventGoto(&evKick{}, "Open")
}

// TestProductionFIFOAndExactlyOnce: three machines each send 50 000 numbered
// events to one sink that, every so often, spends a while in a state deferring
// them. Events of one sender arrive in send order, each exactly once; the
// sink's handlers never overlap and each sees what the last one wrote.
func TestProductionFIFOAndExactlyOnce(t *testing.T) {
	const senders, each, pauseEvery = 3, 50_000, 7_919
	var (
		inHandler atomic.Int32
		got       int // sink-local, like nextFrom: only its handlers touch them
		nextFrom  = make(map[psharp.MachineID]int)
		pauses    int
	)
	r := psharp.NewRuntime()
	r.MustRegister("Sink", func() psharp.Machine {
		return &fifoSink{pauseEvery: pauseEvery, inHandler: &inHandler, got: &got, nextFrom: nextFrom, pauses: &pauses}
	})
	register(r, "Sender", func(s *psharp.StateBuilder) {
		s.OnEventDoM(&evTarget{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			for n := 0; n < each; n++ {
				ctx.Send(ev.(*evTarget).ID, &evNum{From: ctx.ID(), N: n})
			}
		})
	})
	sink := r.MustCreate("Sink", nil)
	for i := 0; i < senders; i++ {
		mustSend(t, r, r.MustCreate("Sender", nil), &evTarget{ID: sink})
	}
	mustWait(t, r)
	if got != senders*each || pauses != senders*each/pauseEvery {
		t.Fatalf("sink handled %d of %d events over %d pauses (want %d)", got, senders*each, pauses, senders*each/pauseEvery)
	}
	for id, n := range nextFrom {
		if n != each {
			t.Fatalf("%s: %d of %d events delivered", id, n, each)
		}
	}
	if m := r.Metrics(); m.Sends != int64(senders*each+senders+pauses) || m.DroppedSends != 0 {
		t.Fatalf("metrics %+v, want %d sends and none dropped", m, senders*each+senders+pauses)
	}
}

// TestProductionWaitCoversAllOutstandingWork: Wait does not return while an
// entry action is still running, and counts an event as done whether it was
// handled, ignored, or dropped by a halt; sends to the halted machine are
// DroppedSends.
func TestProductionWaitCoversAllOutstandingWork(t *testing.T) {
	var entered, handled atomic.Int32
	r := psharp.NewRuntime()
	register(r, "M", func(s *psharp.StateBuilder) {
		s.OnEntryM(func(psharp.Machine, *psharp.Context, psharp.Event) {
			time.Sleep(20 * time.Millisecond)
			entered.Add(1)
		}).
			Ignore(&evA{}).
			OnEventDoM(&evB{}, func(psharp.Machine, *psharp.Context, psharp.Event) { handled.Add(1) }).
			OnEventDoM(&evC{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) { ctx.Halt() })
	})
	id := r.MustCreate("M", nil)
	mustWait(t, r)
	if entered.Load() != 1 {
		t.Fatal("Wait returned before the initial entry action had finished")
	}
	for _, ev := range []psharp.Event{&evA{}, &evB{}, &evA{}, &evC{}, &evB{}, &evB{}} {
		mustSend(t, r, id, ev) // the last two are dropped by the halt, or after it
	}
	mustWait(t, r)
	if handled.Load() != 1 {
		t.Fatalf("handled %d events, want the one before the halt", handled.Load())
	}
	mustSend(t, r, id, &evB{})
	mustWait(t, r)
	if m := r.Metrics(); m.Sends+m.DroppedSends != 7 || m.DroppedSends < 1 || handled.Load() != 1 {
		t.Fatalf("after a send to the halted machine: %+v, handled %d", m, handled.Load())
	}
}

// TestProductionFirstFailureWins: of two machines that fail, Wait and Failure
// report the one that failed first, and keep reporting it.
func TestProductionFirstFailureWins(t *testing.T) {
	r := psharp.NewRuntime()
	register(r, "M", func(s *psharp.StateBuilder) {
		s.OnEventDoM(&evA{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			ctx.Assert(false, "first")
		}).OnEventDoM(&evB{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			for r.Failure() == nil {
				time.Sleep(time.Millisecond)
			}
			ctx.Assert(false, "second")
		})
	})
	a, b := r.MustCreate("M", nil), r.MustCreate("M", nil)
	mustWait(t, r)
	mustSend(t, r, b, &evB{})
	mustSend(t, r, a, &evA{})
	for i := 0; i < 2; i++ {
		var bug *psharp.Bug
		if err := r.Wait(); !errors.As(err, &bug) || bug.Kind != psharp.BugAssertion || bug.Message != "first" || bug.Machine != a {
			t.Fatalf("Wait = %v, want machine %s's assertion \"first\"", err, a)
		}
		time.Sleep(5 * time.Millisecond) // let the second failure be recorded
	}
	if bug := r.Failure(); bug == nil || bug.Message != "first" {
		t.Fatalf("Failure = %v, want the first one", bug)
	}
}

// TestActivationRingStaysOnOneGoroutine: a token passed between machines that
// are idle when it arrives never leaves the goroutine that took it up — a
// hop costs no goroutine, no park and no wake-up.
func TestActivationRingStaysOnOneGoroutine(t *testing.T) {
	const relays, hops = 4, 2_000
	var ids [relays]psharp.MachineID
	ran := make(map[string]int)
	r := psharp.NewRuntime()
	register(r, "Relay", func(s *psharp.StateBuilder) {
		s.OnEventDoM(&evNum{}, func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			ran[goid()]++ // one goroutine at a time, or the race detector objects
			if n := ev.(*evNum).N; n > 1 {
				ctx.Send(ids[(n-1)%relays], &evNum{N: n - 1})
			}
		})
	})
	for i := range ids {
		ids[i] = r.MustCreate("Relay", nil)
	}
	mustWait(t, r)
	mustSend(t, r, ids[0], &evNum{N: hops})
	mustWait(t, r)
	if len(ran) != 1 {
		t.Fatalf("hops per goroutine: %v, want all %d on one", ran, hops)
	}
	for _, n := range ran {
		if n != hops {
			t.Fatalf("%d of %d hops ran", n, hops)
		}
	}
}

// TestActivationFanOutStartsEveryWokenMachine: a handler that wakes eight idle
// machines keeps one of them for its own goroutine and gives the others
// theirs; all of them run.
func TestActivationFanOutStartsEveryWokenMachine(t *testing.T) {
	const leaves = 8
	var hub string
	var leaf [leaves]string
	var ids [leaves]psharp.MachineID
	r := psharp.NewRuntime()
	register(r, "Leaf", func(s *psharp.StateBuilder) {
		s.OnEventDoM(&evNum{}, func(_ psharp.Machine, _ *psharp.Context, ev psharp.Event) { leaf[ev.(*evNum).N] = goid() })
	})
	register(r, "Hub", func(s *psharp.StateBuilder) {
		s.OnEventDoM(&evKick{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			hub = goid()
			for i, id := range ids {
				ctx.Send(id, &evNum{N: i})
			}
		})
	})
	for i := range ids {
		ids[i] = r.MustCreate("Leaf", nil)
	}
	mustWait(t, r)
	mustSend(t, r, r.MustCreate("Hub", nil), &evKick{})
	mustWait(t, r)
	onHub := 0
	for i, g := range leaf {
		if g == "" {
			t.Fatalf("leaf %d was woken and never ran", i)
		}
		if g == hub {
			onHub++
		}
	}
	if onHub != 1 {
		t.Fatalf("%d leaves ran on the hub's goroutine, want exactly the one it held back (hub %s, leaves %v)", onHub, hub, leaf)
	}
}

// TestActivationBusyWakerDoesNotHoldTheWokenBack: a machine with more of its
// own work queued gives the machine it woke a goroutine at its next dequeue
// instead of making it wait for the backlog.
func TestActivationBusyWakerDoesNotHoldTheWokenBack(t *testing.T) {
	var target psharp.MachineID
	release, woken := make(chan struct{}), make(chan struct{})
	r := psharp.NewRuntime()
	register(r, "Woken", func(s *psharp.StateBuilder) {
		s.OnEventDoM(&evKick{}, func(psharp.Machine, *psharp.Context, psharp.Event) { close(woken) })
	})
	register(r, "Waker", func(s *psharp.StateBuilder) {
		s.OnEventDoM(&evA{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			<-release // until the backlog below is in the mailbox
			ctx.Send(target, &evKick{})
		}).OnEventDoM(&evB{}, func(psharp.Machine, *psharp.Context, psharp.Event) {
			select {
			case <-woken:
			case <-time.After(10 * time.Second):
				panic("the woken machine is waiting for its waker's backlog")
			}
		})
	})
	target = r.MustCreate("Woken", nil)
	waker := r.MustCreate("Waker", nil)
	mustWait(t, r)
	mustSend(t, r, waker, &evA{})
	mustSend(t, r, waker, &evB{})
	close(release)
	mustWait(t, r)
}

// TestActivationWakerHaltsAfterWaking: the machine a handler woke runs — on
// the same goroutine — although the waker halted in that very handler.
func TestActivationWakerHaltsAfterWaking(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var target psharp.MachineID
	var wakerG, wokenG string
	r := psharp.NewRuntime()
	register(r, "Woken", func(s *psharp.StateBuilder) {
		s.OnEventDoM(&evKick{}, func(psharp.Machine, *psharp.Context, psharp.Event) { wokenG = goid() })
	})
	register(r, "Waker", func(s *psharp.StateBuilder) {
		s.OnEventDoM(&evKick{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			wakerG = goid()
			ctx.Send(target, &evKick{})
			ctx.Halt()
		})
	})
	target = r.MustCreate("Woken", nil)
	waker := r.MustCreate("Waker", nil)
	mustWait(t, r)
	mustSend(t, r, waker, &evKick{})
	mustSend(t, r, waker, &evKick{}) // dropped by the halt, or sent after it
	mustWait(t, r)
	if wokenG == "" || wokenG != wakerG {
		t.Fatalf("woken machine ran on goroutine %q, its halted waker on %q", wokenG, wakerG)
	}
	drained(t, baseline, "after the waker halted")
}

// TestActivationWakerFailsAfterWaking: a handler creates a machine, wakes an
// idle one, and then panics or fails an assertion. Wait returns that bug, the
// created machine's activation still happens (its entry action runs), and no
// goroutine is left behind.
func TestActivationWakerFailsAfterWaking(t *testing.T) {
	for _, assert := range []bool{false, true} {
		baseline := runtime.NumGoroutine()
		var target psharp.MachineID
		born := make(chan struct{})
		r := psharp.NewRuntime()
		register(r, "Woken", func(s *psharp.StateBuilder) { s.Ignore(&evKick{}) })
		register(r, "Born", func(s *psharp.StateBuilder) {
			s.OnEntryM(func(psharp.Machine, *psharp.Context, psharp.Event) { close(born) })
		})
		register(r, "Waker", func(s *psharp.StateBuilder) {
			s.OnEventDoM(&evKick{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
				ctx.CreateMachine("Born", nil)
				ctx.Send(target, &evKick{})
				ctx.Assert(!assert, "boom")
				panic("boom")
			})
		})
		target = r.MustCreate("Woken", nil)
		waker := r.MustCreate("Waker", nil)
		mustWait(t, r)
		mustSend(t, r, waker, &evKick{})
		want := psharp.BugPanic
		if assert {
			want = psharp.BugAssertion
		}
		var bug *psharp.Bug
		if err := r.Wait(); !errors.As(err, &bug) || bug.Kind != want || bug.Message != "boom" || bug.Machine != waker {
			t.Fatalf("Wait = %v, want %s's failure \"boom\" of kind %v", err, waker, want)
		}
		select {
		case <-born:
		case <-time.After(10 * time.Second):
			t.Fatal("the machine the failing handler created was never started")
		}
		drained(t, baseline, "after the waker failed")
	}
}

// The relay ring of the production benchmark: n machines pass one token
// around, and every hop folds step into its checksum.
type ringHop struct {
	psharp.EventBase
	Left int
	Sum  uint64
}

type ringWire struct {
	psharp.EventBase
	Next psharp.MachineID
}

// ringEnd is what the machine that found the token spent recorded.
type ringEnd struct {
	delivered int
	sum       uint64
}

// ringRelay is the static twin of relayRing's closure-form relay.
type ringRelay struct {
	psharp.StaticBase
	next psharp.MachineID
	hops int
	step uint64
	end  *ringEnd
}

func (*ringRelay) ConfigureType(sc *psharp.Schema) {
	sc.Start("Run").
		OnEventDoM(&ringWire{}, func(m psharp.Machine, _ *psharp.Context, ev psharp.Event) {
			m.(*ringRelay).next = ev.(*ringWire).Next
		}).
		OnEventDoM(&ringHop{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			r, t := m.(*ringRelay), ev.(*ringHop)
			if t.Left == 0 {
				*r.end = ringEnd{delivered: r.hops, sum: t.Sum}
				return
			}
			ctx.Send(r.next, &ringHop{Left: t.Left - 1, Sum: t.Sum*31 + r.step})
		})
}

// relayRing runs hops hops around a ring of n relays on a production
// runtime, declared in the closure form or, with static, as ringRelay.
func relayRing(t *testing.T, static bool, n, hops int, step uint64) ringEnd {
	t.Helper()
	var end ringEnd
	r := psharp.NewRuntime()
	defer r.Stop()
	r.MustRegister("Relay", func() psharp.Machine {
		if static {
			return &ringRelay{hops: hops, step: step, end: &end}
		}
		var next psharp.MachineID
		return psharp.MachineFunc(func(sc *psharp.Schema) {
			sc.Start("Run").
				OnEventDo(&ringWire{}, func(_ *psharp.Context, ev psharp.Event) { next = ev.(*ringWire).Next }).
				OnEventDo(&ringHop{}, func(ctx *psharp.Context, ev psharp.Event) {
					t := ev.(*ringHop)
					if t.Left == 0 {
						end = ringEnd{delivered: hops, sum: t.Sum}
						return
					}
					ctx.Send(next, &ringHop{Left: t.Left - 1, Sum: t.Sum*31 + step})
				})
		})
	})
	ids := make([]psharp.MachineID, n)
	for i := range ids {
		ids[i] = r.MustCreate("Relay", nil)
	}
	for i, id := range ids {
		mustSend(t, r, id, &ringWire{Next: ids[(i+1)%n]})
	}
	mustWait(t, r)
	mustSend(t, r, ids[0], &ringHop{Left: hops})
	mustWait(t, r)
	return end
}

// TestProductionDeclarationFormsRelayAlike: the relay ring declared in the
// closure form, whose handlers OnEventDo adapts to the one action slot, and
// in the static form deliver the same hop count and checksum.
func TestProductionDeclarationFormsRelayAlike(t *testing.T) {
	const relays, step = 16, 0x9e3779b9
	for _, hops := range []int{1, 17, 5_000} {
		var want uint64
		for i := 0; i < hops; i++ {
			want = want*31 + step
		}
		closure, static := relayRing(t, false, relays, hops, step), relayRing(t, true, relays, hops, step)
		if closure != static || closure != (ringEnd{delivered: hops, sum: want}) {
			t.Fatalf("%d hops: closure form %+v, static form %+v, want %d hops and checksum %x", hops, closure, static, hops, want)
		}
	}
}
