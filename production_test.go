package psharp_test

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psharp-go/psharp"
	amsg "github.com/psharp-go/psharp/internal/hashtest/a/msg"
	bmsg "github.com/psharp-go/psharp/internal/hashtest/b/msg"
	"github.com/psharp-go/psharp/internal/splitmix"
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

// latch defers evA until evB opens it, then handles each evA slowly.
type latch struct {
	psharp.StaticBase
	handled *atomic.Int32
}

func (*latch) ConfigureType(sc *psharp.Schema) {
	sc.Start("Closed").
		Defer(&evA{}).
		OnEventGoto(&evB{}, "Open")
	sc.State("Open").
		OnEventDoM(&evA{}, func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) {
			time.Sleep(10 * time.Millisecond)
			m.(*latch).handled.Add(1)
		})
}

// TestProductionDeferredEventsAtQuiescenceAreDeadlock: a machine gone idle
// holding only events its state defers is the deadlock RunTest reports, and
// Wait returns it — again when asked again — instead of waiting for work
// nothing can do. The send that lets the machine handle them makes them work
// again: Wait waits for both.
func TestProductionDeferredEventsAtQuiescenceAreDeadlock(t *testing.T) {
	var handled atomic.Int32
	setup := func(r *psharp.Runtime) psharp.MachineID {
		r.MustRegister("Latch", func() psharp.Machine { return &latch{handled: &handled} })
		id := r.MustCreate("Latch", nil)
		mustSend(t, r, id, &evA{})
		mustSend(t, r, id, &evA{})
		return id
	}
	res := runOne(t, func(r *psharp.Runtime) { setup(r) })
	if res.Bug == nil || res.Bug.Kind != psharp.BugDeadlock {
		t.Fatalf("RunTest bug = %v, want a deadlock", res.Bug)
	}
	r := psharp.NewRuntime()
	id := setup(r)
	for i := 0; i < 2; i++ {
		if err := waitWithin(t, r, 5*time.Second); err == nil || err.Error() != res.Bug.Error() {
			t.Fatalf("Wait = %v, want %v", err, res.Bug)
		}
	}
	mustSend(t, r, id, &evB{})
	if err := waitWithin(t, r, 5*time.Second); err != nil || handled.Load() != 2 {
		t.Fatalf("Wait = %v with %d deferred events handled, want nil after both", err, handled.Load())
	}
}

// waitWithin is r.Wait, failing the test if it has not returned after d.
func waitWithin(t *testing.T, r *psharp.Runtime, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- r.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("Wait still blocked after %v", d)
		return nil
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

// pingPair binds the two event types that print as msg.Ping to different
// actions in Run, and only one of them leads there from Wait, which defers
// the other; Run binds the value form of HaltEvent to an action too, so that
// only the pointer form halts, and evNum to a Goto of a state never
// declared.
type pingPair struct{ logged }

func (*pingPair) ConfigureType(sc *psharp.Schema) {
	sc.Start("Wait").
		Defer(&bmsg.Ping{}).
		OnEventGoto(&amsg.Ping{}, "Run")
	sc.State("Run").
		OnEntryM(func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) { note(m, "enter") }).
		OnEventDoM(&amsg.Ping{}, func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) { note(m, "a") }).
		OnEventDoM(&bmsg.Ping{}, func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) { note(m, "b") }).
		OnEventDoM(psharp.HaltEvent{}, func(m psharp.Machine, _ *psharp.Context, _ psharp.Event) { note(m, "halt value") }).
		OnEventDoM(&evNum{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) { ctx.Goto("Nowhere") })
}

// TestProductionDispatchByTypeIdentity: a state finds an event's binding by
// the event's dynamic type, and two types are one only if they are the same
// type — not if they print alike (a/msg.Ping, b/msg.Ping) nor if they are
// the pointer and value forms of one struct (HaltEvent). The same sends give
// the same handlers, in the same order, and the same failures under the
// production runtime and under RunTest.
func TestProductionDispatchByTypeIdentity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sends []psharp.Event
		log   []string
		bug   *psharp.Bug // Kind, State and Message
	}{
		{"dispatch", []psharp.Event{&bmsg.Ping{}, &amsg.Ping{}, &amsg.Ping{}, psharp.HaltEvent{}, &psharp.HaltEvent{}, &amsg.Ping{}},
			[]string{"enter", "b", "a", "halt value"}, nil},
		{"unbound", []psharp.Event{&amsg.Ping{}, &evKick{}},
			[]string{"enter"}, &psharp.Bug{Kind: psharp.BugUnhandledEvent, State: "Run", Message: `event evKick cannot be handled in state "Run"`}},
		{"undeclared goto", []psharp.Event{&bmsg.Ping{}, &amsg.Ping{}, &evNum{}},
			[]string{"enter", "b"}, &psharp.Bug{Kind: psharp.BugAssertion, State: "Run", Message: `PingPair(1): Goto("Nowhere"): no such state`}},
	} {
		var log []string
		setup := func(r *psharp.Runtime) {
			r.MustRegister("PingPair", func() psharp.Machine { return &pingPair{logged{log: &log}} })
			id := r.MustCreate("PingPair", nil)
			for _, ev := range tc.sends {
				mustSend(t, r, id, ev)
			}
		}
		check := func(runtime string, bug *psharp.Bug) {
			t.Helper()
			if strings.Join(log, ",") != strings.Join(tc.log, ",") {
				t.Fatalf("%s, %s: ran %v, want %v", tc.name, runtime, log, tc.log)
			}
			switch {
			case tc.bug == nil && bug != nil:
				t.Fatalf("%s, %s: bug %v, want none", tc.name, runtime, bug)
			case tc.bug != nil && (bug == nil || bug.Kind != tc.bug.Kind || bug.State != tc.bug.State || bug.Message != tc.bug.Message):
				t.Fatalf("%s, %s: bug %v, want %v", tc.name, runtime, bug, tc.bug)
			}
		}

		r := psharp.NewRuntime()
		setup(r)
		var bug *psharp.Bug
		if err := r.Wait(); err != nil && !errors.As(err, &bug) {
			t.Fatalf("%s, production: Wait = %v", tc.name, err)
		}
		r.Stop()
		check("production", bug)

		log = nil
		check("RunTest", runOne(t, setup).Bug)
	}
}

// drawSeq draws, in the entry action of its one state, 32 booleans (as 0 or
// 1) and then 32 integers in [0, N) into the slice its creation payload
// carries.
type drawSeq struct{ psharp.StaticBase }

type evDrawSeq struct {
	psharp.EventBase
	N   int
	Out *[]int
}

func (*drawSeq) ConfigureType(sc *psharp.Schema) {
	sc.Start("Draw").OnEntryM(func(_ psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
		e := ev.(*evDrawSeq)
		for range 32 {
			b := 0
			if ctx.RandomBool() {
				b = 1
			}
			*e.Out = append(*e.Out, b)
		}
		for range 32 {
			*e.Out = append(*e.Out, ctx.RandomInt(e.N))
		}
	})
}

// productionDraws runs one drawSeq machine on a production runtime built
// with opts and returns what it drew.
func productionDraws(t *testing.T, n int, opts ...psharp.Option) []int {
	t.Helper()
	r := psharp.NewRuntime(opts...)
	r.MustRegister("DrawSeq", func() psharp.Machine { return &drawSeq{} })
	var out []int
	r.MustCreate("DrawSeq", &evDrawSeq{N: n, Out: &out})
	mustWait(t, r)
	return out
}

// TestProductionDrawsFollowTheSeed: a production runtime's RandomBool and
// RandomInt draw the SplitMix64 stream of its WithSeed seed — a bool the
// low bit of a word, an int the word modulo n — so one seed gives one
// sequence and another seed another; RandomInt(n) stays in [0, n), also for
// an n past math.MaxInt32, which production accepts and a controller, whose
// trace records an int32, refuses.
func TestProductionDrawsFollowTheSeed(t *testing.T) {
	const n = 7
	got := productionDraws(t, n, psharp.WithSeed(42))
	if again := productionDraws(t, n, psharp.WithSeed(42)); !slices.Equal(got, again) {
		t.Fatalf("seed 42 drew %v, then %v", got, again)
	}
	if other := productionDraws(t, n, psharp.WithSeed(43)); slices.Equal(got, other) {
		t.Fatalf("seeds 42 and 43 drew the same %v", got)
	}
	src := splitmix.Source{State: 42}
	want := make([]int, 0, 64)
	for range 32 {
		want = append(want, int(src.Next()&1))
	}
	for range 32 {
		want = append(want, int(src.Next()%n))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("seed 42 drew %v, SplitMix64 gives %v", got, want)
	}
	for _, v := range got[32:] {
		if v < 0 || v >= n {
			t.Fatalf("RandomInt(%d) = %d", n, v)
		}
	}

	if strconv.IntSize == 32 {
		return // an int cannot exceed math.MaxInt32
	}
	big := math.MaxInt32 << 8
	for _, v := range productionDraws(t, big, psharp.WithSeed(42))[32:] {
		if v < 0 || v >= big {
			t.Fatalf("RandomInt(%d) = %d", big, v)
		}
	}
	res := psharp.RunTest(func(r *psharp.Runtime) {
		r.MustRegister("DrawSeq", func() psharp.Machine { return &drawSeq{} })
		r.MustCreate("DrawSeq", &evDrawSeq{N: big, Out: new([]int)})
	}, psharp.TestConfig{Strategy: firstEnabled{}})
	if res.Bug == nil || res.Bug.Kind != psharp.BugAssertion || !strings.Contains(res.Bug.Message, "n must be at most 2147483647") {
		t.Fatalf("RandomInt(%d) under a controller: bug %v, want its refusal", big, res.Bug)
	}
}

// The mailbox of an active machine is two queues: the owner's, which it
// dequeues from without a lock, and the inbox senders append to under the
// mailbox lock. The tests below pin the seams: the event that wakes an idle
// machine lands in the owner's queue and the ones after it in the inbox, the
// owner splices the inbox in when nothing in its queue is dispatchable, and
// always before it goes idle.

// boundarySink checks that each sender's evNum events arrive in order, once
// each; every pauseEvery events it goes to Hold, which defers them until an
// evKick from outside. Flow ignores kicks.
type boundarySink struct {
	psharp.StaticBase
	pauseEvery int
	got        *int
	nextFrom   map[psharp.MachineID]int
}

func (*boundarySink) ConfigureType(sc *psharp.Schema) {
	sc.Start("Flow").
		OnEventDoM(&evNum{}, func(m psharp.Machine, ctx *psharp.Context, ev psharp.Event) {
			s, e := m.(*boundarySink), ev.(*evNum)
			ctx.Assert(e.N == s.nextFrom[e.From], "%s: event %d arrived in position %d", e.From, e.N, s.nextFrom[e.From])
			s.nextFrom[e.From]++
			if *s.got++; *s.got%s.pauseEvery == 0 {
				ctx.Goto("Hold")
			}
		}).
		Ignore(&evKick{})
	sc.State("Hold").
		Defer(&evNum{}).
		OnEventGoto(&evKick{}, "Flow")
}

// TestProductionFIFOAcrossTheIdleBoundary: three goroutines send numbered
// events to a machine that keeps going idle holding deferred ones, while a
// fourth kicks it out of its deferring state. Each send that wakes the
// machine appends behind the deferred events in the owner's queue, the sends
// racing it land in the inbox; every sender's events still arrive in send
// order, each exactly once.
func TestProductionFIFOAcrossTheIdleBoundary(t *testing.T) {
	const senders, each, pauseEvery = 3, 20_000, 97
	var got int // sink-local, like nextFrom: only its handlers touch them
	nextFrom := make(map[psharp.MachineID]int)
	r := psharp.NewRuntime()
	r.MustRegister("Sink", func() psharp.Machine {
		return &boundarySink{pauseEvery: pauseEvery, got: &got, nextFrom: nextFrom}
	})
	sink := r.MustCreate("Sink", nil)
	mustWait(t, r)
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(senders)
	for g := 1; g <= senders; g++ {
		from := psharp.MachineID{Type: "Env", Seq: uint64(g)}
		go func() {
			defer wg.Done()
			for n := 0; n < each; n++ {
				r.SendEvent(sink, &evNum{From: from, N: n})
			}
		}()
	}
	kicked := make(chan struct{})
	go func() {
		defer close(kicked)
		for !done.Load() {
			r.SendEvent(sink, &evKick{})
			time.Sleep(20 * time.Microsecond)
		}
	}()
	wg.Wait()
	done.Store(true)
	<-kicked
	// Whatever is left deferred is a deadlock until a kick releases it.
	for kicks := 0; ; kicks++ {
		err := waitWithin(t, r, 10*time.Second)
		if err == nil {
			break
		}
		var bug *psharp.Bug
		if !errors.As(err, &bug) || bug.Kind != psharp.BugDeadlock || kicks > senders*each/pauseEvery {
			t.Fatalf("Wait = %v after %d closing kicks", err, kicks)
		}
		mustSend(t, r, sink, &evKick{})
	}
	if got != senders*each {
		t.Fatalf("sink handled %d of %d events", got, senders*each)
	}
	for id, n := range nextFrom {
		if n != each {
			t.Fatalf("%s: %d of %d events delivered", id, n, each)
		}
	}
	if m := r.Metrics(); m.Sends < senders*each || m.DroppedSends != 0 {
		t.Fatalf("metrics %+v, want at least %d sends and none dropped", m, senders*each)
	}
}

// TestProductionHaltRacingSends: a machine halts at its haltAt-th event while
// three goroutines are still sending to it. Wait returns; the machine handled
// exactly haltAt events; every send was delivered (Sends: handled, or dropped
// from the mailbox by the halt, HaltDropped — exactly) or refused
// (DroppedSends), none lost.
func TestProductionHaltRacingSends(t *testing.T) {
	const senders, each, haltAt = 3, 5_000, 500
	var handled int
	r := psharp.NewRuntime()
	register(r, "Mortal", func(s *psharp.StateBuilder) {
		s.OnEventDoM(&evNum{}, func(_ psharp.Machine, ctx *psharp.Context, _ psharp.Event) {
			if handled++; handled == haltAt {
				ctx.Halt()
			}
		})
	})
	id := r.MustCreate("Mortal", nil)
	var wg sync.WaitGroup
	wg.Add(senders)
	for g := 0; g < senders; g++ {
		go func() {
			defer wg.Done()
			for n := 0; n < each; n++ {
				r.SendEvent(id, &evNum{N: n})
			}
		}()
	}
	wg.Wait()
	if err := waitWithin(t, r, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if handled != haltAt || int64(handled)+m.HaltDropped != m.Sends || m.Sends+m.DroppedSends != senders*each {
		t.Fatalf("handled %d (want %d), metrics %+v: want handled + halt-dropped = sends, sends + dropped sends = %d",
			handled, haltAt, m, senders*each)
	}
}

// TestProductionDeferredInboxIsParked: events that reach the inbox while a
// handler runs, all of them deferred, are spliced into the queue the machine
// goes idle with and count as parked: Wait reports the deadlock instead of
// quiescence.
func TestProductionDeferredInboxIsParked(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	r := psharp.NewRuntime()
	register(r, "M", func(s *psharp.StateBuilder) {
		s.OnEventDoM(&evA{}, func(psharp.Machine, *psharp.Context, psharp.Event) {
			close(entered)
			<-gate
		}).
			Defer(&evB{})
	})
	id := r.MustCreate("M", nil)
	mustWait(t, r)
	mustSend(t, r, id, &evA{})
	<-entered
	for i := 0; i < 3; i++ {
		mustSend(t, r, id, &evB{})
	}
	close(gate)
	err := waitWithin(t, r, 10*time.Second)
	var bug *psharp.Bug
	if !errors.As(err, &bug) || bug.Kind != psharp.BugDeadlock || bug.Machine != id {
		t.Fatalf("Wait = %v, want a deadlock of %s", err, id)
	}
}
