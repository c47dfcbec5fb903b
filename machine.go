package psharp

import (
	"fmt"
	"sync"
)

// machineInstance is the runtime representation of one machine: its logic,
// compiled schema, current state, and event queue. The same instance code
// runs under the production runtime (goroutine with a blocking queue) and
// the serialized testing runtime (coroutine the controller switches to).
type machineInstance struct {
	id     MachineID
	rt     *Runtime
	logic  Machine
	schema *compiledSchema
	ctx    *Context

	// state names the current state and st is its compiled form, cached by
	// enter so that dispatching an event looks no state up by name.
	state  string
	st     *stateSpec
	halted bool

	// mu guards halted and the mailbox under the production runtime, where
	// senders run concurrently with the machine; the testing runtime is
	// serialized and takes no lock (see Runtime.lock). The mailbox is the
	// window queue[qhead:]: dequeuing its head advances qhead instead of
	// shifting the backlog down (see removeLocked, push).
	mu    sync.Mutex
	cond  *sync.Cond
	queue []envelope
	qhead int

	// initReleased tracks the production-mode "initialization" work unit:
	// it is released once the initial entry action has completed (or the
	// machine dies), so Wait does not report quiescence while entry actions
	// are still running.
	initReleased bool

	// test mode fields
	bug     *Bug
	aborted bool
	// next and stop are the controller's side of the machine's coroutine
	// (iter.Pull over poolLoop): next switches to the machine and returns
	// the kind of its next yield; stop retires the coroutine. yield is the
	// machine's side, valid once poolLoop has started. All three are nil
	// under the production runtime, where machines are plain goroutines.
	next  func() (yieldKind, bool)
	stop  func()
	yield func(yieldKind) bool
	// started is true while a run frame is live on the coroutine's stack:
	// set when the machine is first scheduled in an iteration, cleared
	// whenever run returns. Teardown only has frames of started machines to
	// unwind. fate is how the last run ended, recorded by finish for
	// poolLoop to yield. stopped records that yield has returned false
	// (the coroutine was retired mid-run) and must never be called again.
	started bool
	stopped bool
	fate    yieldKind
	// crashed is set by the controller (while the machine is parked) to
	// make the next park unwind with a crashSignal: the fault-injection
	// crash. birth is the creation payload: what the next run starts from,
	// kept so a crash-with-restart reboots the machine by re-delivering it.
	crashed bool
	birth   Event
	// handling, hev, hops and hprog are the machine's mid-handler position,
	// maintained only when the controller's state hasher is active: while a
	// handler runs, hev is the event it was dispatched on and hops logs the
	// visible operations it has performed since (sends, creates,
	// nondeterministic choices). Two global states with equal visible state
	// but different pending continuations must hash differently, or the
	// state cache would conflate them — but the hashing itself (the event's
	// payload, the sent events' types) waits for hashMachine, which folds
	// the logged operations into hprog and empties the log; a handler that
	// completes before any state hash is taken costs a few word writes.
	handling bool
	hev      Event
	hops     []handlerOp
	hprog    uint64
}

// handlerOp is one visible operation of a running handler: word is the
// send's target, the created machine or the choice drawn (each tagged by
// the caller), sent the event of a send.
type handlerOp struct {
	word uint64
	sent Event
}

func newMachineInstance(rt *Runtime, id MachineID, logic Machine, schema *compiledSchema) *machineInstance {
	m := &machineInstance{id: id, rt: rt, logic: logic, schema: schema}
	m.cond = sync.NewCond(&m.mu)
	m.ctx = &Context{m: m, rt: rt}
	return m
}

// progDispatch starts the mid-handler position at event dispatch; progIdle
// clears it once the handler has run to completion, so a machine waiting
// for its next event contributes a stable "idle" position to the
// global-state hash. Both are no-ops unless state hashing is active.
func (m *machineInstance) progDispatch(ev Event) {
	if c := m.rt.test; c != nil && c.hasher != nil {
		m.handling, m.hev, m.hprog = true, ev, fnvOffset64
	}
}

func (m *machineInstance) progIdle() {
	if c := m.rt.test; c != nil && c.hasher != nil {
		m.progReset()
	}
}

// progReset forgets the mid-handler position, dropping the event references
// the operation log holds.
func (m *machineInstance) progReset() {
	m.handling, m.hev = false, nil
	clear(m.hops)
	m.hops = m.hops[:0]
}

// park is the machine's side of a scheduling point: it switches to the
// testing controller, reporting kind, and returns when the controller
// schedules the machine again. If the controller is tearing the iteration
// down, the machine unwinds with an abortSignal panic, which run's recover
// turns into a clean exit; a pending fault-injection crash unwinds the same
// way with a crashSignal.
func (m *machineInstance) park(kind yieldKind) {
	if !m.yield(kind) {
		// The coroutine was retired with this frame still live. yield must
		// not be called again: unwind and let poolLoop return.
		m.stopped = true
		panic(abortSignal{})
	}
	m.checkScheduled()
}

// checkScheduled runs the checks every resumption starts with.
func (m *machineInstance) checkScheduled() {
	if m.rt.test.aborting {
		panic(abortSignal{})
	}
	if m.crashed {
		panic(crashSignal{})
	}
}

// yieldPoint is a scheduling point the machine reaches mid-handler (send,
// create, and the CHESS-granularity points): the machine closes its own step
// and takes the scheduling decision on its own stack. Chosen again, it just
// returns into the handler; otherwise it parks until rescheduled, leaving
// the outcome for the controller's loop to act on. No-op under the
// production runtime.
func (m *machineInstance) yieldPoint() {
	c := m.rt.test
	if c == nil {
		return
	}
	c.endStep()
	if c.pending = c.pass(); c.pending == passRun && c.current.Seq == m.id.Seq {
		c.continued++
		return
	}
	m.park(ykYield)
}

// poolLoop is the body of a pooled machine coroutine: each time the
// controller first schedules the instance in an iteration (or after a
// crash-restart) it runs the machine from its birth payload, then yields
// the run's fate and stays parked there — at the loop top — until the
// instance is scheduled again, possibly as a different machine of a later
// iteration or another harness. The loop exits when the coroutine is
// stopped.
func (m *machineInstance) poolLoop(yield func(yieldKind) bool) {
	m.yield = yield
	for {
		m.run(m.birth)
		if m.stopped || !yield(m.fate) {
			return
		}
	}
}

// recycle clears all per-iteration state so the instance (and its parked
// coroutine) can serve the next TestHarness iteration. Slices keep their
// capacity; event references are dropped so finished programs can be
// collected. Only called after teardown has unwound the machine's run.
func (m *machineInstance) recycle() {
	m.id = MachineID{}
	m.logic = nil
	m.schema = nil
	m.state, m.st = "", nil
	m.halted = false
	m.dropQueue()
	m.initReleased = false
	m.bug = nil
	m.aborted = false
	m.crashed = false
	m.birth = nil
	m.progReset()
	m.ctx.currentEvent = nil
	m.ctx.resetPending()
}

// run executes the machine from its initial state until it halts or fails:
// the goroutine body in production, one poolLoop round in test mode.
func (m *machineInstance) run(payload Event) {
	defer m.finish()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		switch v := r.(type) {
		case abortSignal:
			m.aborted = true
		case crashSignal:
			// Fault-injection crash: not a bug. m.crashed is already set;
			// finish reports ykCrashed to the waiting controller.
		case assertFailed:
			m.bug = &Bug{Kind: BugAssertion, Machine: m.id, State: m.state, Message: v.msg}
		default:
			m.bug = &Bug{Kind: BugPanic, Machine: m.id, State: m.state, Message: fmt.Sprint(v)}
		}
	}()
	if m.rt.test != nil {
		// The controller has just scheduled the machine for the first time
		// (the coroutine stays parked at poolLoop's top until then) — or is
		// crashing it before it ever ran.
		m.started = true
		m.checkScheduled()
	}
	m.enter(m.schema.initial)
	if m.rt.logging() {
		m.rt.logf("%s: entering initial state %q", m.id, m.state)
	}
	if st := m.st; st.hasEntry() {
		m.progDispatch(payload)
		if bug := m.execute(st.onEntry, st.onEntryM, payload); bug != nil {
			m.bug = bug
			return
		}
		m.progIdle()
	}
	m.releaseInit()
	for !m.halted {
		env, bug, ok := m.nextEvent()
		if bug != nil {
			m.bug = bug
			return
		}
		if !ok {
			return // runtime stopped
		}
		if m.rt.logging() {
			m.rt.logf("%s: dequeued %s in state %q", m.id, eventName(env.event), m.state)
		}
		m.progDispatch(env.event)
		bug = m.handleEvent(env.event)
		m.progIdle()
		// The work unit for this event is released only after its handler
		// has completed, so production-mode Wait cannot observe quiescence
		// while an action is still running.
		m.rt.eventConsumed()
		if bug != nil {
			m.bug = bug
			return
		}
	}
}

// finish settles the machine's fate exactly once: in test mode it records
// it for poolLoop to yield to the controller, in production it feeds the
// runtime's failure/accounting machinery.
func (m *machineInstance) finish() {
	if m.rt.test != nil {
		m.started = false
		switch {
		case m.aborted:
			m.fate = ykAborted
		case m.crashed:
			m.fate = ykCrashed
		case m.bug != nil:
			m.fate = ykBug
		default:
			m.fate = ykHalted
		}
		return
	}
	if m.bug != nil {
		m.rt.fail(m.bug)
	}
	m.releaseInit()
}

// releaseInit releases the production-mode initialization work unit exactly
// once; only ever called from the machine's own goroutine.
func (m *machineInstance) releaseInit() {
	if m.initReleased || m.rt.test != nil {
		return
	}
	m.initReleased = true
	m.rt.initDone()
}

// nextEvent returns the next dispatchable event. Under the production
// runtime it blocks on the queue condition variable; under the testing
// runtime it reports "blocked" to the controller and parks, and takes no
// lock. ok is false when the runtime is stopping.
func (m *machineInstance) nextEvent() (envelope, *Bug, bool) {
	if c := m.rt.test; c != nil {
		for {
			if c.cfg.ChessLike {
				// CHESS-granularity scheduling: the dequeue of the thread-safe
				// blocking queue is itself a visible synchronizing operation.
				m.yieldPoint()
			}
			env, found, bug := m.scanQueueLocked()
			if found {
				c.onDequeue(m, env)
			}
			if found || bug != nil {
				return env, bug, found
			}
			m.park(ykBlocked)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		env, found, bug := m.scanQueueLocked()
		if found || bug != nil || m.rt.isStopped() {
			return env, bug, found
		}
		m.cond.Wait()
	}
}

// scanQueueLocked implements the paper's transition-function semantics: it
// returns the first queued event the machine is willing to handle in its
// current state, dropping ignored events along the way and skipping deferred
// ones. Encountering an event with no binding at all is a runtime error
// (Section 6.1), except for the built-in halt event.
func (m *machineInstance) scanQueueLocked() (envelope, bool, *Bug) {
	i := m.qhead
	for i < len(m.queue) {
		env := m.queue[i]
		disp, ok := m.st.lookup(eventKey(env.event))
		if !ok {
			if isHaltEvent(env.event) {
				m.removeLocked(i) // released in run, like any dispatch
				return env, true, nil
			}
			return envelope{}, false, &Bug{
				Kind:    BugUnhandledEvent,
				Machine: m.id,
				State:   m.state,
				Message: fmt.Sprintf("event %s cannot be handled in state %q", eventName(env.event), m.state),
			}
		}
		switch disp.kind {
		case dispatchIgnore:
			i = m.removeLocked(i)
			m.rt.eventConsumed()
		case dispatchDefer:
			i++
		default:
			// The dequeued event's work unit stays outstanding until its
			// handler completes (released in run).
			m.removeLocked(i)
			return env, true, nil
		}
	}
	return envelope{}, false, nil
}

// queued is the mailbox: the events sent and not yet dequeued, in order.
func (m *machineInstance) queued() []envelope { return m.queue[m.qhead:] }

// removeLocked dequeues queue[i] and returns the index its successor now
// has. The head — the only case when nothing is deferred — costs O(1): it
// moves qhead past the slot, and an emptied mailbox rewinds to the start of
// its array. Only an event behind deferred ones shifts the rest down. Either
// way the vacated slot is zeroed so it does not retain its Event.
func (m *machineInstance) removeLocked(i int) int {
	if i == m.qhead {
		m.queue[i] = envelope{}
		if m.qhead++; m.qhead == len(m.queue) {
			m.queue, m.qhead = m.queue[:0], 0
		}
		return m.qhead
	}
	last := len(m.queue) - 1
	copy(m.queue[i:], m.queue[i+1:])
	m.queue[last] = envelope{}
	m.queue = m.queue[:last]
	return i
}

// push appends env to the mailbox. Before the array would grow it reclaims
// the dequeued prefix, if that is most of it: the move is paid for by the
// dequeues that made the prefix, so a mailbox that never drains stays linear.
func (m *machineInstance) push(env envelope) {
	if len(m.queue) == cap(m.queue) && m.qhead > len(m.queue)/2 {
		n := copy(m.queue, m.queue[m.qhead:])
		clear(m.queue[n:])
		m.queue, m.qhead = m.queue[:n], 0
	}
	m.queue = append(m.queue, env)
}

// dropQueue empties the mailbox, keeping its capacity (with event references
// cleared) so a recycled instance does not regrow it, and returns how many
// events it held.
func (m *machineInstance) dropQueue() int {
	n := len(m.queued())
	clear(m.queued())
	m.queue, m.qhead = m.queue[:0], 0
	return n
}

func isHaltEvent(ev Event) bool {
	switch ev.(type) {
	case *HaltEvent, HaltEvent:
		return true
	}
	return false
}

// handleEvent processes one dequeued or raised event to completion,
// including any chained raises and transitions requested by the actions.
func (m *machineInstance) handleEvent(ev Event) *Bug {
	disp, ok := m.st.lookup(eventKey(ev))
	if !ok {
		if isHaltEvent(ev) {
			m.doHalt()
			return nil
		}
		return &Bug{
			Kind:    BugUnhandledEvent,
			Machine: m.id,
			State:   m.state,
			Message: fmt.Sprintf("event %s cannot be handled in state %q", eventName(ev), m.state),
		}
	}
	switch disp.kind {
	case dispatchIgnore:
		return nil
	case dispatchDefer:
		// Only reachable for raised events; re-queue at the back.
		m.rt.enqueue(m.id, ev, m, false)
		return nil
	case dispatchAction:
		if cov := m.rt.cover; cov != nil {
			cov.Hit(m.id.Type, m.state, disp.event)
		}
		return m.execute(disp.action, disp.maction, ev)
	case dispatchGoto:
		if cov := m.rt.cover; cov != nil {
			cov.Hit(m.id.Type, m.state, disp.event)
		}
		return m.gotoState(disp.target, ev)
	default:
		return &Bug{Kind: BugPanic, Machine: m.id, State: m.state, Message: "corrupt dispatch table"}
	}
}

// execute runs a bound action — whichever declaration form is set — and
// then applies whatever pending effect (halt, goto, raise) the action
// requested via its Context. Static-form actions receive the machine's
// logic instance explicitly, which is what lets their schema be shared.
func (m *machineInstance) execute(fn Action, mfn MachineAction, ev Event) *Bug {
	m.ctx.resetPending()
	m.ctx.currentEvent = ev
	if mfn != nil {
		mfn(m.logic, m.ctx, ev)
	} else {
		fn(m.ctx, ev)
	}
	return m.applyPending(ev)
}

func (m *machineInstance) applyPending(trigger Event) *Bug {
	halt, gotoState, raised := m.ctx.takePending()
	if halt {
		m.doHalt()
		return nil
	}
	if gotoState != "" {
		return m.gotoState(gotoState, trigger)
	}
	if raised != nil {
		if m.rt.logging() {
			m.rt.logf("%s: raised %s", m.id, eventName(raised))
		}
		m.rt.observeMonitors(raised) // monitors observe raises like sends
		return m.handleEvent(raised)
	}
	return nil
}

// gotoState exits the current state, enters target, and runs its entry
// action with the triggering event as payload.
func (m *machineInstance) gotoState(target string, payload Event) *Bug {
	if cur := m.st; cur != nil && cur.hasExit() {
		m.ctx.resetPending()
		if cur.onExitM != nil {
			cur.onExitM(m.logic, m.ctx)
		} else {
			cur.onExit(m.ctx)
		}
		if halt, g, r := m.ctx.takePending(); halt || g != "" || r != nil {
			return &Bug{Kind: BugPanic, Machine: m.id, State: m.state,
				Message: "exit actions must not call Goto, Raise or Halt"}
		}
	}
	if m.rt.logging() {
		m.rt.logf("%s: %q -> %q", m.id, m.state, target)
	}
	m.enter(target)
	if st := m.st; st.hasEntry() {
		return m.execute(st.onEntry, st.onEntryM, payload)
	}
	return nil
}

// enter makes name the machine's current state.
func (m *machineInstance) enter(name string) { m.state, m.st = name, m.schema.states[name] }

// doHalt marks the machine halted and drops its queue; further events sent
// to it are discarded by the runtime.
func (m *machineInstance) doHalt() {
	m.lock()
	dropped := m.dropQueue()
	m.halted = true
	m.unlock()
	for i := 0; i < dropped; i++ {
		m.rt.eventConsumed()
	}
	if m.rt.logging() {
		m.rt.logf("%s: halted", m.id)
	}
}

// lock and unlock take the mailbox lock under the production runtime only
// (see Runtime.lock).
func (m *machineInstance) lock() {
	if m.rt.test == nil {
		m.mu.Lock()
	}
}

func (m *machineInstance) unlock() {
	if m.rt.test == nil {
		m.mu.Unlock()
	}
}
