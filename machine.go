package psharp

import (
	"fmt"
	"reflect"
	"sync"
)

// machineInstance is the runtime representation of one machine: its logic,
// compiled schema, current state, and event queue. The same instance code
// runs under the production runtime (activations: a goroutine runs the
// machine only while its mailbox has work, see activate) and the serialized
// testing runtime (a coroutine the controller switches to). A specification
// monitor is an instance too, one that observes events instead of receiving
// them: its ID has no Seq, and it has no mailbox and is never scheduled (see
// monitor.go).
type machineInstance struct {
	id     MachineID
	rt     *Runtime
	logic  Machine
	schema *compiledSchema
	ctx    *Context
	// cover is where a machine's dispatches are counted (see coverage); nil
	// without a coverage set, and for a monitor.
	cover *coverBlock

	// st is the current state, set by enter, so that dispatching an event
	// looks no state up by name; nil before boot. halted is set by doHalt,
	// under mu: production senders read it there.
	st     *stateSpec
	halted bool
	// hotFrom is, under a testing runtime, the trace position at which a
	// monitor in a hot state entered it from a state that is not hot: it
	// has been hot at every scheduling point since (controller.lasso).
	hotFrom int
	// touched is, under a testing runtime, the trace position at which the
	// machine last changed: it was created, chosen by a pass, sent to or
	// crashed there. A snapshot at that position or deeper holds it as it is
	// (see controller.restore).
	touched int

	// The mailbox is the window queue[qhead:]: the events sent and not yet
	// dequeued, in order. Dequeuing its head advances qhead instead of
	// shifting the backlog down (see removeAt, push). It is the testing
	// runtime's one queue. Under the production runtime it belongs to the
	// machine's owner (see active), which reads and writes it without a
	// lock, and senders append to inbox instead.
	queue []envelope
	qhead int

	// Production mode, the owner's side. spawn is m.activate, stored once so
	// that starting a goroutine on it allocates no closure; held is the
	// owning goroutine's hand-off slot (see activate).
	spawn func()
	held  **machineInstance

	// test mode fields. status is where the controller has the machine and
	// immune says faults must not touch it: controller.onCreate sets both for
	// every machine it registers, whatever a recycled instance held. A machine
	// that failed is msHalted but not halted: it still receives mail.
	status  machineStatus
	immune  bool
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
	// crash. birth is the creation payload (both modes): what boot starts
	// from, kept so a crash-with-restart reboots the machine by re-delivering
	// it.
	crashed bool
	birth   Event
	// The handler chain the machine is running — a handler, then whatever
	// exits, gotos, entries and raises follow — from the dequeue or birth that
	// began it (controller.beginChain) to its end. handling is set while it
	// runs, ev is the event it began on, and ops logs what it did, in order:
	// its sends, creates and draws and the yield points it passed. ops is
	// written only while something reads it (logged): the state hash, which
	// folds it into hprog (foldChain), and a snapshot recording the chain
	// (chain is non-nil), which copies it (instanceState.save). dequeueing
	// is set while the machine yields at the CHESS-granularity dequeue,
	// between two chains. A machine that is not running is parked mid-handler
	// exactly when handling or dequeueing is set (see checkpoint.go).
	handling   bool
	dequeueing bool
	ev         Event
	ops        []chainOp
	folded     int // ops[:folded] are in hprog
	hprog      uint64
	// comp is the machine's component of the state hash as of the last point
	// that hashed it; stale says it must be rehashed at the next one (see
	// stateHasher).
	comp  uint64
	stale bool
	// chain is where the chain began — the machine's logic and event as of
	// the dequeue or birth — recorded only while the iteration has a snapshot
	// to take ahead; chainSpans is the memory it was copied from, if it was
	// this iteration.
	chain      *handlerStart
	chainSpans []span
	// A machine restored mid-handler catches up: it re-runs its chain with
	// replayLog, the ops the snapshot holds, left to match — creates and
	// draws answered from it, the first step handling replayEv, and its sends,
	// creates and monitor notifications suppressed, the snapshot holding
	// their effects already — and parks, unasked, at the yield point the log
	// ends with.
	replayLog []chainOp
	replayEv  Event

	// Production mode, the senders' side. mu guards it and halted; the
	// testing runtime is serialized and takes mu only in doHalt, which both
	// runtimes share. active says that some goroutine owns the machine: it is
	// running, or about to run, an activation of it, and only it touches
	// queue and the rest of the instance. Whoever sets the bit (create, or
	// the send that finds it clear, which appends to queue itself) must start
	// that activation; the activation clears it under the lock that found
	// nothing dispatchable in queue and the inbox empty, and mu orders one
	// owner's writes before the next one's reads. A send to an active machine
	// appends to inbox, which the owner splices onto queue whenever nothing
	// in queue is dispatchable, so an idle machine's inbox is empty. An idle
	// machine owns no goroutine and no stack. qlen is len(queued()) as of the
	// last time the owner, or the send that set active, held mu. sends and
	// mailboxMax are the machine's share of RuntimeMetrics' Sends and
	// MailboxMax, summed by Runtime.Metrics.
	mu         sync.Mutex
	active     bool
	inbox      []envelope
	qlen       int
	sends      int64
	mailboxMax int64
}

// chainOp is one thing a running handler chain did: a send (v the target's
// Seq, typ the event's type), a create (v the machine's Seq), a draw (v the
// value) or a yield point.
type chainOp struct {
	kind chainOpKind
	v    uint64
	typ  reflect.Type
}

type chainOpKind uint8

const (
	opSend chainOpKind = iota
	opCreate
	opBool
	opInt
	opYield
)

// logged reports whether m's chain log is written: while the state is
// hashed, while a snapshot records the chain, and while m catches up. The
// callers of note ask first, so that nothing else is paid per op.
func (m *machineInstance) logged() bool {
	return m.replayLog != nil || m.chain != nil || m.rt.test.hasher != nil
}

// note is where m's chain logs op, the one site for every kind. While m
// catches up, op must be the next one its log holds — a send to the same
// machine of the same event type, a create, a draw, a yield point — and what
// is returned is the logged one, with the Seq created or the value drawn
// then. A chain asks for the same things in the same order as when it ran,
// unless it is not a deterministic function of its machine's state, its
// event and its controlled choices.
func (m *machineInstance) note(op chainOp) chainOp {
	if log := m.replayLog; log != nil {
		if log[0].kind != op.kind || op.kind == opSend && log[0] != op {
			panic(m.diverged("took another path"))
		}
		op = log[0]
		if m.replayLog = log[1:]; len(m.replayLog) == 0 {
			m.replayLog = nil // caught up
		}
	}
	m.ops = append(m.ops, op)
	return op
}

// diverged says that m, restored mid-handler, did not re-run its handler
// chain as it ran the first time.
func (m *machineInstance) diverged(how string) string {
	return fmt.Sprintf("psharp: %s %s when it was restored mid-handler from a checkpoint: "+
		"its handler is not a deterministic function of its state, its event and its controlled choices", m.id, how)
}

func newMachineInstance(rt *Runtime, id MachineID, logic Machine, schema *compiledSchema) *machineInstance {
	m := &machineInstance{id: id, rt: rt, logic: logic, schema: schema}
	m.ctx = &Context{m: m}
	return m
}

// park is the machine's side of a scheduling point reached mid-handler: it
// switches to the testing controller, reporting kind, and returns when the
// controller schedules the machine again. If the controller is tearing the
// iteration down, the machine unwinds with an abortSignal panic, which run's
// recover turns into a clean exit; a pending fault-injection crash unwinds
// the same way with a crashSignal.
func (m *machineInstance) park(kind yieldKind) {
	if !m.yield(kind) {
		// The coroutine was retired with this frame still live. yield must
		// not be called again: unwind and let poolLoop return.
		m.stopped = true
		panic(abortSignal{})
	}
	m.checkScheduled()
}

// parkBlocked parks a machine with nothing to dispatch until something is
// sent to it. It is between handlers, so when it is resumed only for the
// iteration to be torn down there is nothing to unwind: it reports false and
// run's loop ends by returning. Most machines end most iterations blocked,
// and a panic and its recovery for each of them was a visible share of a
// short iteration. A crash still unwinds.
func (m *machineInstance) parkBlocked() bool {
	if !m.yield(ykBlocked) {
		m.stopped, m.aborted = true, true
		return false
	}
	if m.rt.test.aborting {
		m.aborted = true
		return false
	}
	if m.crashed {
		panic(crashSignal{})
	}
	return true
}

// checkScheduled runs the checks a machine resumed mid-handler, or scheduled
// for the first time, starts with.
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
// the outcome for the controller's loop to act on. Only the controller's
// send and create paths and its dequeue reach one.
func (m *machineInstance) yieldPoint() {
	c := m.rt.test
	catchingUp := m.replayLog != nil
	if m.logged() {
		m.note(chainOp{kind: opYield})
	}
	if catchingUp {
		// The iteration the snapshot was taken in decided here; the last
		// such point is where the machine was parked.
		if m.replayLog == nil {
			m.park(ykYield)
		}
		return
	}
	c.endStep()
	if c.ck != nil {
		c.checkpoint(m)
	}
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
		m.run()
		if m.stopped || !yield(m.fate) {
			return
		}
	}
}

// recycle clears all per-iteration state so the instance (and its parked
// coroutine, if it has one) can serve the next TestHarness iteration, as a
// machine or a monitor. Slices keep their capacity; event references are
// dropped so finished programs can be collected. Only called after teardown
// has unwound the machine's run.
func (m *machineInstance) recycle() {
	m.id = MachineID{}
	m.logic = nil
	m.schema, m.cover = nil, nil
	m.st = nil
	m.halted = false
	m.hotFrom = 0
	m.dropQueue()
	m.bug = nil
	m.aborted = false
	m.crashed = false
	m.birth = nil
	m.handling, m.dequeueing, m.ev, m.ops, m.folded, m.hprog = false, false, nil, m.ops[:0], 0, 0
	m.comp, m.stale = 0, false
	m.chain, m.chainSpans = nil, m.chainSpans[:0]
	m.replayLog, m.replayEv = nil, nil
	m.ctx.resetPending()
}

// run is one poolLoop round of the testing runtime: the machine's life from
// its initial state — or from the state a checkpoint restored it in — until
// it halts or fails.
func (m *machineInstance) run() {
	defer m.finish()
	defer func() {
		switch v := recover().(type) {
		case nil:
		case abortSignal:
			m.aborted = true
		case crashSignal:
			// Fault-injection crash: not a bug. m.crashed is already set;
			// finish reports ykCrashed to the waiting controller.
		default:
			m.bug = m.panicBug(v)
		}
	}()
	// The controller has just scheduled the machine for the first time (the
	// coroutine stays parked at poolLoop's top until then) — or is crashing
	// it before it ever ran.
	m.started = true
	m.checkScheduled()
	if m.st == nil {
		// Not a machine restored from a checkpoint between two handlers of a
		// life already under way.
		m.rt.test.beginChain(m, m.birth)
		if m.bug = m.boot(); m.bug != nil {
			return
		}
	}
	for more := true; more && !m.halted; {
		more, m.bug = m.step() // an empty mailbox parks inside step
	}
}

// finish records how a testing run ended, for poolLoop to yield.
func (m *machineInstance) finish() {
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
}

// panicBug is the bug a panic out of one of m's actions stands for.
func (m *machineInstance) panicBug(v any) *Bug {
	if a, ok := v.(assertFailed); ok {
		return &Bug{Kind: BugAssertion, Machine: m.id, State: m.state(), Message: a.msg}
	}
	return &Bug{Kind: BugPanic, Machine: m.id, State: m.state(), Message: fmt.Sprint(v)}
}

// activate is the body of every goroutine the production runtime starts. It
// runs one activation of m, whose active bit its caller set, and then — as
// the next iteration, not a call — one of the machine that activation woke
// and still held when it ended, and so on until an activation ends holding
// nothing.
//
// held is the goroutine's hand-off slot, reached by the machine it is running
// through m.held: a handler that wakes an idle machine (Runtime.wake) keeps
// at most one such machine back here instead of paying for a goroutine, a
// park and a wake-up. A held machine waits no longer than the rest of the
// handler that woke it: if the waker finds more work in its own mailbox at
// its next dequeue, or wakes a second machine, the held one gets a goroutine
// of its own; if the waker goes idle, halts, fails or sees the runtime
// stopped, the loop below runs it. The slot lives on the goroutine, not in
// the machine, because a machine that went idle may have a new owner by the
// time its old one looks.
func (m *machineInstance) activate() {
	var held *machineInstance
	for ; m != nil; m, held = held, nil {
		m.held = &held
		if bug := m.drain(); bug != nil {
			m.rt.fail(bug)
		}
	}
}

// drain is one activation: the initial entry action if the machine has not
// run yet, then one step after another until nothing in the mailbox is
// dispatchable. An activation is a unit of Wait's work from the send or
// create that started it until it goes idle (nextEvent) or halts (here),
// never if it fails: the bug is reported while the failed machine is still
// owned — its active bit stays set for good — so Wait sees no quiescence
// while an action runs, nor before the failure that ends it. After a step
// that went idle, m is not touched again.
func (m *machineInstance) drain() (bug *Bug) {
	defer func() {
		if v := recover(); v != nil {
			bug = m.panicBug(v)
		}
	}()
	if m.st == nil {
		if bug = m.boot(); bug != nil {
			return bug
		}
	}
	for !m.halted {
		more, bug := m.step()
		if !more {
			return bug // gone idle, or failed
		}
	}
	m.rt.deactivated()
	return nil
}

// boot enters the initial state and runs its entry action on the creation
// payload.
func (m *machineInstance) boot() *Bug {
	m.enter(m.schema.initial)
	if m.rt.logging() {
		m.rt.logf("%s: entering initial state %q", m.id, m.state())
	}
	if entry := m.st.entry; entry != nil {
		if bug := m.execute(entry, m.birth); bug != nil {
			return bug
		}
	}
	m.handling = false // the chain is over
	return nil
}

// step dequeues the next dispatchable event and runs its handler to
// completion: the one unit of execution both runtimes are made of. The
// dequeue found the event's binding, and step dispatches it without looking
// it up again. more is false when the machine cannot take another step now:
// it failed (bug), nothing is dispatchable and the machine has been given up
// (production), or the iteration was torn down while it waited (testing).
func (m *machineInstance) step() (more bool, bug *Bug) {
	ev, disp, bug := m.nextEvent()
	if ev == nil {
		return false, bug
	}
	if m.rt.logging() {
		m.rt.logf("%s: dequeued %s in state %q", m.id, eventName(ev), m.state())
	}
	if disp == nil {
		m.doHalt() // the halt event, which no state needs to bind
	} else if bug = m.dispatch(disp, ev); bug != nil {
		return false, bug
	}
	m.handling = false // the chain is over
	return true, nil
}

// nextEvent returns the next dispatchable event and the binding the current
// state has for it (nil for an unbound halt event), or a nil event. Under the
// testing runtime it reports "blocked" to the controller and parks until
// there is one — the event is nil only if the iteration ends first — and
// takes no lock. Under the production runtime the owner scans its queue
// without a lock and takes the mailbox lock only when nothing there is
// dispatchable: to splice the inbox in and scan again, or, with the inbox
// empty too (or the runtime stopping), to go idle under that same lock. The
// event is nil then, and the next send to m starts its next activation,
// possibly before this call has returned.
func (m *machineInstance) nextEvent() (ev Event, disp *dispatchEntry, bug *Bug) {
	if c := m.rt.test; c != nil {
		if ev := m.replayEv; ev != nil {
			// Catching up: the event the chain was dispatched on, which the
			// restored mailbox no longer holds, in the state it was dispatched
			// in.
			m.replayEv = nil
			c.beginChain(m, ev)
			return ev, m.st.find(ev), nil
		}
		for {
			if c.cfg.ChessLike {
				// CHESS-granularity scheduling: the dequeue of the thread-safe
				// blocking queue is itself a visible synchronizing operation.
				m.dequeueing = true
				m.yieldPoint()
				m.dequeueing = false
			}
			i, disp, bug := m.scanQueue()
			if i >= 0 {
				if c.det != nil { // the happens-before edge from the send
					c.det.Receive(int(m.id.Seq), m.queue[i].clock)
				}
				ev := m.queue[i].event
				m.removeAt(i)
				c.beginChain(m, ev)
				return ev, disp, nil
			}
			if bug != nil {
				return nil, nil, bug
			}
			if !m.parkBlocked() {
				return nil, nil, nil // torn down: run ends as aborted
			}
		}
	}
	r := m.rt
	for {
		if !r.stopped.Load() {
			i, disp, bug := m.scanQueue()
			if i >= 0 {
				ev := m.queue[i].event
				m.removeAt(i)
				if *m.held != nil {
					// More work of its own: the machine this goroutine woke and
					// held back does not wait for it.
					go (*m.held).spawn()
					*m.held = nil
				}
				return ev, disp, nil
			}
			if bug != nil {
				return nil, nil, bug
			}
		}
		m.mu.Lock()
		if m.splice() && !r.stopped.Load() {
			m.mu.Unlock()
			continue
		}
		m.active = false
		if n := len(m.queued()); n > 0 {
			// Deferred (or the runtime is stopping): no handler can take them
			// before a send wakes m, so they are no work Wait can see done.
			r.parked.Add(int64(n))
		}
		m.mu.Unlock()
		r.deactivated()
		return nil, nil, nil
	}
}

// scanQueue implements the paper's transition-function semantics: it finds
// the first queued event the machine is willing to handle in its current
// state, dropping ignored events along the way and skipping deferred ones,
// and returns its index (-1: none) with the binding that says how: the one
// lookup of a dispatch. Only the machine's owner calls it, and the caller
// dequeues the event, keeping it and a pointer into the immutable schema,
// never one into the queue. Encountering an event with no binding at all is
// a runtime error (Section 6.1), except for the built-in halt event,
// returned with a nil binding.
func (m *machineInstance) scanQueue() (int, *dispatchEntry, *Bug) {
	for i := m.qhead; i < len(m.queue); {
		ev := m.queue[i].event
		disp := m.st.find(ev)
		switch {
		case disp == nil:
			if !isHaltEvent(ev) {
				return -1, nil, &Bug{
					Kind:    BugUnhandledEvent,
					Machine: m.id,
					State:   m.state(),
					Message: fmt.Sprintf("event %s cannot be handled in state %q", eventName(ev), m.state()),
				}
			}
		case disp.kind == dispatchIgnore:
			i = m.removeAt(i)
			continue
		case disp.kind == dispatchDefer:
			i++
			continue
		}
		return i, disp, nil
	}
	return -1, nil, nil
}

// queued is the mailbox: the events sent and not yet dequeued, in order.
func (m *machineInstance) queued() []envelope { return m.queue[m.qhead:] }

// removeAt dequeues queue[i] and returns the index its successor now
// has. The head — the only case when nothing is deferred — costs O(1): it
// moves qhead past the slot, and an emptied mailbox rewinds to the start of
// its array. Only an event behind deferred ones shifts the rest down. Either
// way the vacated slot is zeroed so it does not retain its Event.
func (m *machineInstance) removeAt(i int) int {
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

// splice moves the inbox onto the end of the queue, under mu, and reports
// whether it held anything; an empty queue trades arrays with it instead.
// It leaves qlen up to date.
func (m *machineInstance) splice() bool {
	n := len(m.inbox)
	if n > 0 && len(m.queued()) == 0 {
		m.queue, m.qhead, m.inbox = m.inbox, 0, m.queue[:0]
	} else if n > 0 {
		for _, env := range m.inbox {
			m.push(env)
		}
		clear(m.inbox)
		m.inbox = m.inbox[:0]
	}
	m.qlen = len(m.queued())
	return n > 0
}

// countHaltDropped counts the events a halt or a crash is about to drop
// from m's mailbox, queue and inbox: sent, and never to be handled. The
// production owner holds mu.
func (m *machineInstance) countHaltDropped() {
	n := int64(len(m.queued()) + len(m.inbox))
	if c := m.rt.test; c != nil {
		c.counts.haltDropped += n
	} else if n > 0 {
		m.rt.metrics.HaltDropped.Add(n)
	}
}

// dropQueue empties the mailbox, queue and inbox, keeping their capacity
// (with event references cleared) so a recycled instance does not regrow
// them.
func (m *machineInstance) dropQueue() {
	clear(m.queued())
	m.queue, m.qhead = m.queue[:0], 0
	clear(m.inbox)
	m.inbox = m.inbox[:0]
}

func isHaltEvent(ev Event) bool {
	switch ev.(type) {
	case *HaltEvent, HaltEvent:
		return true
	}
	return false
}

// handleEvent processes one raised event to completion, including any
// chained raises and transitions requested by the actions. (A dequeued event
// comes with its binding: step dispatches it directly.)
func (m *machineInstance) handleEvent(ev Event) *Bug {
	if disp := m.st.find(ev); disp != nil {
		return m.dispatch(disp, ev)
	}
	// A monitor gets here only by a raise of its own (observe skips what the
	// state does not bind), and no event, HaltEvent included, halts it.
	if m.monitor() {
		return &Bug{Kind: BugUnhandledEvent, State: m.state(),
			Message: fmt.Sprintf("raised event %s cannot be handled in state %q", eventName(ev), m.state())}
	}
	if isHaltEvent(ev) {
		m.doHalt()
		return nil
	}
	return &Bug{
		Kind:    BugUnhandledEvent,
		Machine: m.id,
		State:   m.state(),
		Message: fmt.Sprintf("event %s cannot be handled in state %q", eventName(ev), m.state()),
	}
}

// dispatch runs the reaction disp the current state binds to ev.
func (m *machineInstance) dispatch(disp *dispatchEntry, ev Event) *Bug {
	switch disp.kind {
	case dispatchIgnore:
		return nil
	case dispatchDefer:
		// Only reachable for raised events; re-queue at the back.
		m.rt.send(m.id, ev, m, false)
		return nil
	case dispatchAction, dispatchGoto:
		// Coverage counts program transitions: a monitor has no block, its
		// dispatches being observations.
		if b := m.cover; b != nil {
			b.add(disp.slot)
		}
		if disp.kind == dispatchGoto {
			return m.gotoState(disp.target, ev)
		}
		return m.execute(disp.fn, ev)
	default:
		return &Bug{Kind: BugPanic, Machine: m.id, State: m.state(), Message: "corrupt dispatch table"}
	}
}

// execute runs a bound action and then applies whatever pending effect
// (halt, goto, raise) the action requested via its Context. The action
// receives the machine's logic instance explicitly, which is what lets its
// schema be shared.
func (m *machineInstance) execute(fn MachineAction, ev Event) *Bug {
	m.ctx.resetPending()
	fn(m.logic, m.ctx, ev)
	return m.applyPending(ev)
}

func (m *machineInstance) applyPending(trigger Event) *Bug {
	halt, gotoState, raised := m.ctx.takePending()
	if halt {
		m.doHalt()
		return nil
	}
	if gotoState != nil {
		return m.gotoState(gotoState, trigger)
	}
	if raised != nil {
		if m.rt.logging() {
			m.rt.logf("%s: raised %s", m, eventName(raised))
		}
		if !m.monitor() && m.replayLog == nil {
			// Monitors observe a machine's raises like its sends; a monitor's
			// own raise is not a program event, and one a restored machine
			// makes again as it catches up was observed before the snapshot.
			m.rt.observeMonitors(raised)
		}
		return m.handleEvent(raised)
	}
	return nil
}

// gotoState exits the current state, enters target, and runs its entry
// action with the triggering event as payload.
func (m *machineInstance) gotoState(target *stateSpec, payload Event) *Bug {
	if cur := m.st; cur != nil && cur.exit != nil {
		m.ctx.resetPending()
		cur.exit(m.logic, m.ctx)
		if halt, g, r := m.ctx.takePending(); halt || g != nil || r != nil {
			msg := "exit actions must not call Goto, Raise or Halt"
			if m.monitor() {
				msg = "monitor " + msg
			}
			return &Bug{Kind: BugPanic, Machine: m.id, State: m.state(), Message: msg}
		}
	}
	if m.rt.logging() {
		m.rt.logf("%s: %q -> %q", m, m.state(), target.name)
	}
	m.enter(target)
	if entry := m.st.entry; entry != nil {
		return m.execute(entry, payload)
	}
	return nil
}

// enter makes st the current state. A monitor that enters a hot state from
// one that is not takes on a liveness obligation; under a testing runtime
// it is dated by the trace position (a hot state entered from a hot one
// continues the obligation, and only monitor states are ever hot).
func (m *machineInstance) enter(st *stateSpec) {
	if st.isHot() && (m.st == nil || !m.st.isHot()) {
		if c := m.rt.test; c != nil {
			m.hotFrom = len(c.trace.Decisions)
		}
	}
	m.st = st
}

// state names the current state, "" before boot.
func (m *machineInstance) state() string {
	if m.st == nil {
		return ""
	}
	return m.st.name
}

// String names m in messages and log lines: a machine by its ID, a monitor
// as "monitor Name".
func (m *machineInstance) String() string {
	if m.monitor() {
		return "monitor " + m.id.Type
	}
	return m.id.String()
}

// doHalt marks the machine halted and drops its queue, counting what it
// drops in HaltDropped; further events sent to it are discarded by the
// runtime.
func (m *machineInstance) doHalt() {
	m.mu.Lock()
	m.countHaltDropped()
	m.dropQueue()
	m.halted = true
	m.mu.Unlock()
	if m.rt.logging() {
		m.rt.logf("%s: halted", m.id)
	}
}
