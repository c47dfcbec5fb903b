package psharp

import (
	"fmt"
	"io"
	"iter"
	"math"
	"reflect"
	"slices"
	"sync"

	"github.com/psharp-go/psharp/internal/vclock"
	"github.com/psharp-go/psharp/obs"
)

// TestConfig configures one bug-finding iteration (paper Section 6.2).
type TestConfig struct {
	// Strategy makes scheduling and nondeterminism decisions. Required.
	Strategy Strategy
	// MaxSteps bounds the number of scheduling decisions per iteration
	// (the paper's depth bound); 0 means unbounded.
	MaxSteps int
	// LivelockAsBug reports reaching MaxSteps as a livelock bug, the
	// technique the paper used to detect the German livelock (Section
	// 7.2.2).
	LivelockAsBug bool
	// ChessLike enables CHESS-granularity scheduling: in addition to the
	// paper's send/create scheduling points, the runtime also schedules at
	// queue-lock and dequeue operations, as a tool instrumenting every
	// synchronizing operation must (Table 2 baseline).
	ChessLike bool
	// RaceDetect runs the happens-before race detector over instrumented
	// Context.Read/Write accesses (the CHESS RD-on configuration).
	RaceDetect bool
	// RaceAsBug turns the first detected race into an iteration-ending bug.
	RaceAsBug bool
	// Interrupt, if non-nil, is polled at every scheduling point; when it
	// returns true the iteration is abandoned mid-schedule and the result is
	// marked Interrupted. The sct engine uses this to enforce hard wall-clock
	// deadlines and to cancel sibling workers in parallel exploration.
	Interrupt func() bool
	// Coverage, if non-nil, accumulates state-transition coverage: every
	// handled (machine type, state, event) dispatch of the iteration is
	// recorded into it, counted by the harness and added when the iteration
	// ends (or panics with the strategy's panic), as Runtime.Metrics are.
	// The set is safe for concurrent use, so parallel exploration workers
	// can share one and report campaign-wide coverage.
	Coverage *obs.StateEventCoverage
	// StateCache, if non-nil, is consulted at every scheduling decision
	// past the prefix the strategy promises to repeat of the harness's
	// previous iteration (see PrefixResumer), with a hash of the global
	// state (machine FSM states, queue contents, logic fields, monitor
	// states) and the decision prefix that reached it;
	// when Visit returns true the iteration is cut short and reported with
	// IterationResult.Pruned set. Skipping the repeated prefix relies, as
	// replay does, on the program being deterministic in its decisions.
	// Only sound under depth-first strategies (see the StateCache docs);
	// incompatible with Faults in this version. A program whose machines
	// or monitors keep a live func, chan or unsafe.Pointer in their state,
	// or that has a closure-form (MachineFunc) machine, cannot be hashed:
	// its iterations end at once with a *StateError in IterationResult.Err.
	StateCache StateCache
	// Faults, if non-nil, enables fault-injection nondeterminism: the
	// controller issues a ChoiceFault query once per scheduler pass (crash?)
	// and once per machine-to-machine send (drop/duplicate/reorder?), and
	// records every answer — including declines — in the trace. Plain
	// Strategy values answer FaultNone to every query via the compatibility
	// adapter; to actually inject faults the strategy must implement
	// DecisionStrategy (see sct.FaultInjector). Replaying a fault-era trace
	// needs only a non-nil &FaultConfig{}: the recorded actions carry
	// everything else.
	Faults *FaultConfig
	// Log, if non-nil, receives the execution log of the iteration.
	Log io.Writer
}

// IterationResult reports one bug-finding iteration.
type IterationResult struct {
	// Bug is non-nil if the iteration ended in a failure.
	Bug *Bug
	// Interrupted reports that cfg.Interrupt abandoned the iteration before
	// it finished; the other fields describe the partial schedule.
	Interrupted bool
	// Pruned reports that cfg.StateCache cut the iteration short at a
	// revisited global state; the schedule prefix explored nothing new.
	Pruned bool
	// BoundReached reports that MaxSteps was hit before quiescence.
	BoundReached bool
	// SchedulingPoints is the number of scheduling decisions taken (the
	// paper's #SP column).
	SchedulingPoints int
	// ReplayedPoints is how many of them lay inside the prefix the
	// strategy promised to repeat of the previous iteration, so that
	// cfg.StateCache was not consulted (see StateCache); 0 without a cache
	// or a PrefixResumer. It includes the RestoredPoints.
	ReplayedPoints int
	// RestoredPoints is how many of them were not executed: the iteration
	// started from a checkpoint taken that deep in the decision prefix it
	// shares with the one before it (see PrefixResumer). They are points of
	// the schedule all the same — in SchedulingPoints, in ReplayedPoints, in
	// the Trace — and 0 unless the strategy is depth-first.
	RestoredPoints int
	// ContinuedPoints is how many of them kept the machine that had just
	// reached a send/create scheduling point running, so that the decision
	// cost no coroutine switch (see controller); a function of the schedule
	// alone.
	ContinuedPoints int
	// Machines is the number of machine instances created.
	Machines int
	// Trace replays the iteration deterministically.
	Trace *Trace
	// Races lists data races found by the detector in RD-on mode.
	Races []string
	// Faults counts the failure actions injected during the iteration.
	Faults FaultStats
	// Err is non-nil when the iteration was abandoned because the program
	// cannot be tested as configured: a *StateError when a machine's or
	// monitor's state cannot be hashed and StateCache is set. The other
	// fields describe the partial schedule; every later Run would end the
	// same way.
	Err error
	// LivenessUnchecked is the *StateError of a point, with a monitor hot,
	// whose state cannot be hashed: from there the iteration looked for no
	// fair lasso (controller.lasso), and ran on with every other check.
	LivenessUnchecked error
}

// yieldKind is what a machine coroutine hands the controller when it
// switches back: why it stopped running.
type yieldKind int

const (
	ykYield   yieldKind = iota // at a send/create scheduling point, still runnable
	ykBlocked                  // no dispatchable event queued
	ykBug                      // run ended in a failure (machineInstance.bug)
	ykHalted                   // run ended normally
	ykCrashed                  // run unwound by a fault-injection crash
	ykAborted                  // run unwound by teardown
)

type machineStatus int

const (
	msReady machineStatus = iota
	msBlocked
	msHalted
)

// passOutcome is what one scheduler pass settled.
type passOutcome int

const (
	passRun   passOutcome = iota // controller.current steps next
	passEnd                      // the iteration is over
	passCrash                    // controller.crash is recorded and has to be applied
)

// controller serializes machine execution in bug-finding mode. Every machine
// is a coroutine (iter.Pull over machineInstance.poolLoop) of the goroutine
// that called TestHarness.Run, and exactly one stack runs at a time: the
// controller's (loop) or one machine's. A switch hands the thread over
// directly — no scheduler, run queue or wake-up — and orders every write on
// one side before every read on the other, so neither controller state nor,
// under a testing runtime, the Runtime's and the machines' own state needs
// a lock (see Runtime.mu).
//
// The scheduling decision (pass) is taken on whichever stack reaches the
// scheduling point. A machine at a send/create/CHESS yield point closes its
// own step and runs the pass itself (machineInstance.yieldPoint); if it is
// chosen again it returns into its handler without a switch, otherwise it
// parks and loop acts on the outcome it left in pending. loop runs the pass
// only where no machine can: at the start, after a machine blocked, halted
// or failed, and after a crash, which it alone applies.
type controller struct {
	rt  *Runtime
	cfg TestConfig

	// ready is the incrementally maintained enabled set, the machines whose
	// status is msReady, kept sorted by creation order (Seq); scratch is the
	// reusable copy handed to Strategy.NextMachine so strategies can never
	// corrupt the ready list.
	ready   []MachineID
	scratch []MachineID

	// free holds recycled machine and monitor instances, their coroutines (a
	// monitor needs none) parked at the top of poolLoop awaiting the next
	// iteration.
	free []*machineInstance

	current     MachineID
	steps       int
	continued   int // scheduling points that needed no switch
	trace       *Trace
	names       []string // the trace's Types, kept across iterations (nameMachines)
	bug         *Bug
	bound       bool
	interrupted bool
	det         *vclock.Detector

	// decider is the strategy as seen through the decision API: the
	// strategy itself if it implements DecisionStrategy, else legacy
	// wrapping it (embedded by value so the adapter never allocates). choice
	// is the one query record every Decide call of the harness is handed (see
	// ask).
	decider DecisionStrategy
	legacy  legacyDecider
	choice  Choice

	// counts holds the iteration's operational counters: plain words, because
	// one stack runs at a time. Run folds them into the runtime's atomic
	// RuntimeMetrics when the iteration ends.
	counts iterationCounts

	// faults counts injected failures. crashScratch is the reusable list of
	// the machines a crash may target — not immune, not halted — in creation
	// order, handed to schedule-level fault queries.
	faults       FaultStats
	crashScratch []MachineID

	// Step observation and state hashing (see statehash.go). observing is
	// true when either hook is active; stepObs is cfg.Strategy's
	// StepObserver view (nil otherwise); hasher is kept, the one the harness
	// allocated, when cfg.StateCache is set or live, nil otherwise. live says
	// a monitor that declares a hot state was registered: the iteration
	// checks a liveness property (see lasso), until a state it cannot hash
	// stops it (unchecked). The step* fields accumulate the footprint of the
	// step currently executing and are reset just before each resume, so
	// environment-side setup activity never leaks into the first step.
	observing    bool
	stepObs      StepObserver
	hasher, kept *stateHasher
	live         bool
	unchecked    *StateError
	pruned       bool
	stepTarget   MachineID
	stepCreated  MachineID
	stepObserved bool

	// pending is the outcome of the pass a machine ran before it parked at
	// a yield point, crash the fault of a passCrash outcome, panicked what a
	// pass recovered from the strategy, for Run to raise after teardown.
	pending  passOutcome
	crash    FaultAction
	panicked any

	// aborting makes every machine resumed from now on unwind: set by
	// teardown, read by machines right after the switch that resumes them.
	aborting bool

	// resumer is cfg.Strategy's PrefixResumer, which says how much of the
	// previous iteration a Run repeats; ck holds the checkpoints, once there
	// is a use for any, and restored is how many scheduling points this
	// iteration took from one. key is what of the configuration the previous
	// trace and the checkpoints were recorded under (rewind); err is what Run
	// reports in IterationResult.Err.
	resumer   PrefixResumer
	ck        *checkpoints
	restored  int
	resumedOn MachineID // whose stack took the restored snapshot's pass, if a machine's
	key       inheritKey
	err       error
}

// reserve is a process-wide stock of idle things, a stack under a mutex: a
// closing harness puts what it grew and a new one takes it before building
// its own. What is kept, and how it is unbound first, is the callers' policy.
type reserve[T any] struct {
	mu   sync.Mutex
	idle []T
}

// put keeps x unless the reserve already holds limit things, and reports
// whether it did.
func (r *reserve[T]) put(x T, limit int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.idle) >= limit {
		return false
	}
	r.idle = append(r.idle, x)
	return true
}

// take returns the thing put last, or the zero T when there is none.
func (r *reserve[T]) take() (x T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.idle); n > 0 {
		x = r.idle[n-1]
		clear(r.idle[n-1:])
		r.idle = r.idle[:n-1]
	}
	return x
}

// instanceReserve holds idle machine instances: coroutine, if any, parked at
// the top of poolLoop, bound to no runtime. A closing harness donates its
// freelist here and a harness whose own freelist is empty draws from here
// before building anything, so short-lived harnesses (RunTest, a replay, a
// hunt of three schedules) stop paying for a coroutine per machine — the
// dominant start-up cost, at 13 allocations each. A harness in steady state
// is served by its own freelist and never takes the lock.
var instanceReserve reserve[*machineInstance]

// reserveCap bounds the instance reserve; instances donated beyond it are
// retired. 256 parked coroutines cover the largest protocol in the suite many
// times over and pin a few megabytes of stacks at most.
const reserveCap = 256

// donateInstances moves idle instances into the reserve, unbinding them
// from their runtime so it can be collected, and retires the overflow.
func donateInstances(idle []*machineInstance) {
	for _, m := range idle {
		m.rt = nil
		if !instanceReserve.put(m, reserveCap) && m.stop != nil {
			m.stop()
		}
	}
}

// traceReserve holds idle trace buffers: a closing harness donates the
// []Decision it grew and the next harness starts with it, so a short-lived
// harness (a hunt of three schedules, the replay that confirms it) does not
// regrow a trace by doubling from nothing.
var traceReserve reserve[[]Decision]

// The reserve keeps at most traceReserveCap buffers of at most
// traceReserveLen decisions each — 8 × 512 KB at worst. A longer trace's
// buffer is left to the collector: the next harness may run a short program.
const (
	traceReserveCap = 8
	traceReserveLen = 1 << 14
)

// namesReserve holds the names tables (Trace.Types) of closed harnesses, kept
// whole: the traces of those harnesses may still read them.
var namesReserve reserve[[]string]

func donateTrace(buf []Decision) {
	if cap(buf) > 0 && cap(buf) <= traceReserveLen {
		traceReserve.put(buf[:0], traceReserveCap)
	}
}

// acquireInstance returns an idle instance for the machine or monitor id —
// from the harness freelist, else from the process-wide reserve, else freshly
// built — with a coroutine if id is a machine's and the instance has none
// yet. Execution is serialized, so the freelist needs no lock.
func (c *controller) acquireInstance(r *Runtime, id MachineID, logic Machine, schema *compiledSchema) *machineInstance {
	var m *machineInstance
	if n := len(c.free); n > 0 {
		m = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else if m = instanceReserve.take(); m != nil {
		m.rt = r
	} else {
		m = newMachineInstance(r, id, logic, schema)
	}
	if m.next == nil && id.Seq != 0 {
		m.next, m.stop = iter.Pull(m.poolLoop)
	}
	m.id, m.logic, m.schema = id, logic, schema
	if id.Seq != 0 {
		m.cover = r.cover.block(schema)
	}
	return m
}

// release recycles the instances of a finished iteration into the freelist
// and returns the emptied list. Only called after teardown, which leaves
// every coroutine parked at the top of poolLoop with no machine code on its
// stack.
func (c *controller) release(ms []*machineInstance) []*machineInstance {
	for i, m := range ms {
		m.recycle()
		c.free = append(c.free, m)
		ms[i] = nil
	}
	return ms[:0]
}

// create is the testing runtime's create (see Runtime.newMachine): a
// machine from a recycled instance and coroutine, registered as ready, and
// the creator's scheduling point. A creator catching up after a restore
// creates nothing: the machine is in the snapshot.
func (c *controller) create(typeName string, payload Event, creator *machineInstance) (MachineID, error) {
	if creator != nil && creator.replayLog != nil {
		return c.created(creator, 0), nil
	}
	r := c.rt
	logic, schema, err := r.instantiate(typeName)
	if err != nil {
		return MachineID{}, err
	}
	r.nextSeq++
	id := MachineID{Type: typeName, Seq: r.nextSeq}
	m := c.acquireInstance(r, id, logic, schema)
	m.birth = payload // what boot starts from, again after a restart
	r.machines = append(r.machines, m)
	if r.logging() {
		r.logf("created %s", id)
	}
	c.counts.creates++
	if creator == nil {
		c.onCreate(m, 0)
		return id, nil
	}
	c.onCreate(m, int(creator.id.Seq))
	return c.created(creator, id.Seq), nil
}

// send is the testing runtime's send (see Runtime.send): a machine send is
// a scheduling point (under CHESS granularity also before delivery) and may
// be faulted, and it counts into plain words, one stack running at a time.
func (c *controller) send(target MachineID, ev Event, sm *machineInstance, isMachineSend bool) {
	var sender MachineID
	if sm != nil {
		sender = sm.id
	}
	if sm == nil || isMachineSend && sm.replayLog == nil {
		// As in production, monitors observe machine and environment sends
		// but not re-queues; nor the sends a restored machine makes again as
		// it catches up, which they observed before the snapshot.
		c.observe(ev)
	}
	m := c.machineAt(target.Seq)
	if m == nil {
		msg := fmt.Sprintf("send of %s to unknown machine %s", eventName(ev), target)
		if isMachineSend {
			panic(assertFailed{msg: msg})
		}
		if c.bug == nil { // the environment's: a re-queue's target is its sender
			c.bug = &Bug{Kind: BugPanic, Message: msg}
		}
		return
	}
	if c.cfg.ChessLike && isMachineSend {
		// CHESS granularity: acquiring the queue lock of the thread-safe
		// blocking queue is a visible synchronizing operation of its own.
		sm.yieldPoint()
	}
	if sm != nil && sm.replayLog != nil {
		// Catching up after a restore: the snapshot holds the delivery.
		if isMachineSend {
			c.sent(sm, target, ev)
		}
		return
	}

	// The per-send fault query: on the sender's stack, before delivery, for
	// every machine send when faults are enabled, so the query sequence is a
	// function of the schedule alone. A halted target ignores the answer.
	fault := FaultNone
	if isMachineSend && c.cfg.Faults != nil {
		fault = c.nextSendFault(target, m)
	}
	var clock vclock.VC
	if c.det != nil {
		clock = c.det.Send(int(sender.Seq))
	}
	switch {
	case m.halted:
		c.counts.dropped++
		if c.rt.logging() {
			c.rt.logf("dropped %s to halted %s", eventName(ev), target)
		}
	case fault == FaultDrop:
		c.faults.Drops++
		c.counts.dropped++
		if c.rt.logging() {
			c.rt.logf("fault: dropped %s to %s", eventName(ev), target)
		}
	default:
		env := envelope{event: ev, sender: sender, clock: clock}
		m.push(env)
		m.touched = len(c.trace.Decisions)
		switch fault {
		case FaultDuplicate:
			m.push(env)
			c.faults.Duplicates++
		case FaultReorder:
			// Break FIFO: the message overtakes everything already queued.
			q := m.queued()
			copy(q[1:], q)
			q[0] = env
			c.faults.Reorders++
		}
		if c.rt.logging() {
			c.rt.logf("%s -> %s: %s", sender, target, eventName(ev))
		}
		c.counts.sends++
		c.counts.mailboxMax = max(c.counts.mailboxMax, int64(len(m.queued())))
		if m.status == msBlocked { // runnable again: the event may be dispatchable
			m.status = msReady
			c.readyAdd(m.id)
		}
	}
	if isMachineSend {
		c.sent(sm, target, ev)
	}
}

// machineAt returns the machine with Seq seq, nil if there is none.
func (c *controller) machineAt(seq uint64) *machineInstance {
	if ms := c.rt.machines; seq != 0 && seq <= uint64(len(ms)) {
		return ms[seq-1]
	}
	return nil
}

// onCreate registers a newly created (or restored) machine as ready to run
// its initial entry action, its hash component stale, and settles whether
// faults may touch it. Both are written whatever the instance held before: it
// may come from another iteration or harness. New machines carry the highest
// Seq so far, so appending keeps the ready list sorted by creation order.
func (c *controller) onCreate(m *machineInstance, creatorIdx int) {
	m.status, m.touched = msReady, len(c.trace.Decisions)
	m.immune = c.cfg.Faults != nil && c.cfg.Faults.isImmune(m.id.Type)
	c.ready = append(c.ready, m.id)
	if c.det != nil {
		c.det.Fork(creatorIdx, int(m.id.Seq))
	}
	if h := c.hasher; h != nil {
		h.stale(m)
	}
}

// readyAdd inserts id into the ready list at its creation-order position:
// a scan from the back, the list being a handful of IDs.
func (c *controller) readyAdd(id MachineID) {
	i := len(c.ready)
	c.ready = append(c.ready, id)
	for ; i > 0 && c.ready[i-1].Seq > id.Seq; i-- {
		c.ready[i] = c.ready[i-1]
	}
	c.ready[i] = id
}

// readyRemove deletes id from the ready list (no-op if absent).
func (c *controller) readyRemove(id MachineID) {
	for i := range c.ready {
		if c.ready[i].Seq == id.Seq {
			c.ready = append(c.ready[:i], c.ready[i+1:]...)
			return
		}
	}
}

// setDecider caches the per-iteration views of cfg.Strategy — through the
// decision API, as a StepObserver, as a PrefixResumer — avoiding the type
// assertion at every nondeterminism point.
func (c *controller) setDecider() {
	cfg := &c.cfg
	c.stepObs, _ = cfg.Strategy.(StepObserver)
	c.resumer, _ = cfg.Strategy.(PrefixResumer)
	c.hasher = nil
	if cfg.StateCache != nil || c.live {
		c.startHashing()
	}
	c.observing = c.stepObs != nil || c.hasher != nil
	c.pruned = false
	c.stepTarget, c.stepCreated, c.stepObserved = MachineID{}, MachineID{}, false
	if ds, ok := cfg.Strategy.(DecisionStrategy); ok {
		c.decider = ds
		return
	}
	c.legacy.s = cfg.Strategy
	c.decider = &c.legacy
}

// ask puts the query the caller has described in c.choice to the strategy.
// The answer is written straight into the trace's next record, which the
// caller validates where it lies and then commits; returning without
// committing — or a panic of the strategy — leaves the trace as it was.
func (c *controller) ask() *Decision {
	d := c.trace.slot()
	c.decider.Decide(&c.choice, d)
	return d
}

// nextBool draws a controlled boolean for machine m — from the strategy, or
// from m's log while m catches up after a restore, the decision being in the
// restored trace already.
func (c *controller) nextBool(m *machineInstance) bool {
	op := chainOp{kind: opBool}
	if m.replayLog == nil {
		c.choice.Kind = ChoiceBool
		d := c.ask()
		if d.Kind != DecisionBool {
			panic(assertFailed{msg: fmt.Sprintf("strategy answered a bool choice with decision kind %d", d.Kind)})
		}
		c.trace.commit()
		if d.Bool {
			op.v = 1
		}
		if h := c.hasher; h != nil {
			h.prefix = fold(fold(h.prefix, 2), op.v)
		}
	}
	if m.logged() {
		op = m.note(op)
	}
	return op.v == 1
}

// nextInt draws a controlled integer in [0, n) for machine m, as nextBool;
// n may be at most math.MaxInt32, a trace recording the value as an int32.
func (c *controller) nextInt(m *machineInstance, n int) int {
	if n > math.MaxInt32 {
		panic(assertFailed{msg: fmt.Sprintf("%s: RandomInt(%d): n must be at most %d under a testing runtime", m.id, n, math.MaxInt32)})
	}
	op := chainOp{kind: opInt}
	if m.replayLog == nil {
		c.choice.Kind, c.choice.N = ChoiceInt, n
		d := c.ask()
		if d.Kind != DecisionInt {
			panic(assertFailed{msg: fmt.Sprintf("strategy answered an int choice with decision kind %d", d.Kind)})
		}
		if d.Int < 0 || int(d.Int) >= n {
			panic(assertFailed{msg: fmt.Sprintf("strategy returned %d for NextInt(%d)", d.Int, n)})
		}
		c.trace.commit()
		op.v = uint64(d.Int)
		if h := c.hasher; h != nil {
			h.prefix = fold(fold(h.prefix, 3), op.v)
		}
	}
	if m.logged() {
		op = m.note(op)
	}
	return int(op.v)
}

// anyQueuedWhileBlocked detects the deadlock case: machines hold only
// deferred events and nobody is runnable.
func (c *controller) anyQueuedWhileBlocked() *machineInstance {
	for _, m := range c.rt.machines {
		if m.status == msBlocked && len(m.queued()) > 0 {
			return m
		}
	}
	return nil
}

// loop drives one iteration from the controller's stack: it switches to the
// machine each pass chose and applies each crash; TestHarness.Run tears the
// iteration down after it, or leaves that to the next rewind. A machine that
// comes back from a yield point has already closed its step
// and run the next pass; any other way back leaves both to loop.
func (c *controller) loop() {
	out := c.loopPass()
	if out == passRun && c.resumedOn.Seq != 0 && c.current.Seq == c.resumedOn.Seq {
		// Restored at a pass a yield point of this machine took on its own
		// stack: from setup, choosing it again cost no switch.
		c.continued++
	}
	for out != passEnd {
		if out == passCrash {
			// The target may be the machine whose stack took the decision,
			// and crashing is a switch to it: only possible from here. The
			// pass starts over — the crash may have emptied the ready set,
			// and the next pass gets its own fault query.
			c.crashMachine(c.crash)
			out = c.pass()
			continue
		}
		m := c.rt.machines[c.current.Seq-1]
		kind, _ := m.next()
		if kind == ykYield {
			out = c.pending // the machine stays in the ready set
			continue
		}
		status := msHalted
		if kind == ykBlocked {
			status = msBlocked
		} else if kind == ykBug && c.bug == nil {
			// First bug wins: a monitor may already have failed this very
			// decision (observation runs before the machine's own panic),
			// and the specification violation is the primary report.
			c.bug = m.bug
		}
		m.status = status
		c.readyRemove(m.id)
		c.endStep()
		out = c.loopPass()
	}
}

// pass is the scheduler pass: every check between two steps and the
// strategy's choice of the machine that takes the next one, recorded in the
// trace. It runs on the stack that reached the scheduling point — a
// machine's, mid-handler, or loop's — and only says what has to happen;
// switching and crashing are loop's. A panic of the strategy (a replay that
// diverged, say) must not unwind the handler it interrupted as if the
// machine had failed: it ends the iteration and is kept for Run.
func (c *controller) pass() (out passOutcome) {
	defer func() {
		if r := recover(); r != nil {
			c.panicked, out = r, passEnd
		}
	}()
	if c.bug != nil {
		return passEnd
	}
	if c.cfg.Interrupt != nil && c.cfg.Interrupt() {
		c.interrupted = true
		return passEnd
	}
	if len(c.ready) == 0 {
		if m := c.anyQueuedWhileBlocked(); m != nil {
			c.bug = &Bug{Kind: BugDeadlock, Machine: m.id, State: m.state(),
				Message: "all machines blocked but deferred events remain queued"}
		} else if mon := c.hotMonitor(); mon != nil {
			// A finite execution ended with an undischarged liveness
			// obligation: nothing can ever discharge it now.
			c.bug = &Bug{Kind: BugLiveness, Monitor: mon.id.Type, State: mon.state(),
				Message: fmt.Sprintf("monitor still hot in state %q when the program quiesced", mon.state())}
		}
		return passEnd // quiescence: the program terminated naturally
	}
	if c.cfg.MaxSteps > 0 && c.steps >= c.cfg.MaxSteps {
		c.bound = true
		if c.cfg.LivelockAsBug {
			c.bug = &Bug{Kind: BugLivelock, Machine: c.current,
				Message: fmt.Sprintf("depth bound of %d scheduling points exceeded", c.cfg.MaxSteps)}
		}
		return passEnd
	}
	if h := c.hasher; h != nil && c.checkState(h) {
		return passEnd
	}
	if c.cfg.Faults != nil {
		if crash := c.scheduleFault(); c.bug != nil {
			return passEnd
		} else if crash {
			return passCrash
		}
	}
	c.scratch = append(c.scratch[:0], c.ready...)
	c.choice.Kind, c.choice.Current, c.choice.Enabled = ChoiceMachine, c.current, c.scratch
	d := c.ask()
	if d.Kind != DecisionSchedule {
		c.bug = &Bug{Kind: BugPanic,
			Message: fmt.Sprintf("strategy answered a machine choice with decision kind %d", d.Kind)}
		return passEnd
	}
	// The pick is enabled iff its Seq is that of a machine whose status is
	// ready: the ready list holds exactly those.
	m := c.machineAt(d.Machine.Seq)
	if m == nil || m.status != msReady {
		var chosen MachineID
		if c.decider == DecisionStrategy(&c.legacy) {
			chosen = c.legacy.pick // what it returned, type and all
		} else if m != nil {
			chosen = m.id
		}
		c.bug = refused("chose", d.Machine.Seq, chosen, "enabled")
		return passEnd
	}
	c.trace.commit()
	c.current = m.id
	m.touched = len(c.trace.Decisions)
	c.steps++
	if c.observing {
		if h := c.hasher; h != nil {
			h.prefix = fold(fold(h.prefix, 1), m.id.Seq)
		}
		c.stepTarget, c.stepCreated, c.stepObserved = MachineID{}, MachineID{}, false
	}
	return passRun
}

// refused is the bug of a strategy answer that named Seq seq, machine id
// (nil when no machine has that Seq), which is not what the answer needs:
// the strategy did something to it ("chose") that it must be ("enabled").
func refused(did string, seq uint64, id MachineID, must string) *Bug {
	what := id.String()
	if id.IsNil() {
		what = fmt.Sprintf("machine %d", seq)
	}
	return &Bug{Kind: BugPanic, Machine: id, Message: fmt.Sprintf("strategy %s %s, which is not %s", did, what, must)}
}

// hotMonitor returns the monitor that has been in a hot state the longest,
// nil if none is hot.
func (c *controller) hotMonitor() *machineInstance {
	var hot *machineInstance
	for _, mon := range c.rt.monitors {
		if mon.st.isHot() && (hot == nil || mon.hotFrom < hot.hotFrom) {
			hot = mon
		}
	}
	return hot
}

// watchLiveness is registration's news of a monitor that declares a hot
// state: from here on the iteration hashes its points while a monitor is hot,
// whether or not there is a cache — every machine created so far stale — and
// looks them up in a lasso table of its own. A harness whose last iteration
// showed such a monitor starts hashing before setup (setDecider), so that
// rewind can hand the table on.
func (c *controller) watchLiveness() {
	if c.live {
		return
	}
	c.live = true
	if c.hasher == nil {
		c.startHashing()
		c.observing = true
		for _, m := range c.rt.machines {
			c.hasher.stale(m)
		}
	}
}

// startHashing makes the harness's hasher, allocated the first time, the
// iteration's, reset.
func (c *controller) startHashing() {
	if c.kept == nil {
		c.kept = &stateHasher{lassos: make(map[uint64]int)}
	}
	c.hasher = c.kept
	c.hasher.reset()
}

// lasso looks the state at this point, where monitor mon has been hot the
// longest, up in the iteration's table of the points hashed while a monitor
// was hot. A repeat closes a cycle, Decisions[i:j] from the point at trace
// position i to this one at j, and the cycle is a liveness bug if mon has
// been hot since i or earlier, it chose every machine enabled now, and it
// injected no fault. Such a cycle can repeat forever — the program is
// deterministic in its decisions — and fairly, since only a machine's own
// step or a crash disables it: a machine enabled anywhere on the cycle was
// chosen on it or is enabled here. A cycle that fails the first or last test
// cannot be stretched back into one that passes, and the table moves on to
// j; one that only starves a machine can, and the table keeps i.
func (c *controller) lasso(state uint64, mon *machineInstance) bool {
	h := c.hasher
	j := len(c.trace.Decisions)
	i, seen := h.lassos[state]
	if !seen {
		h.setLasso(state, j, -1)
		return false
	}
	cycle := c.trace.Decisions[i:j]
	if mon.hotFrom > i || slices.ContainsFunc(cycle, func(d Decision) bool { return d.Kind == DecisionFault && d.Fault.Kind != FaultNone }) {
		h.setLasso(state, j, i)
		return false
	}
	for _, id := range c.ready {
		if !slices.ContainsFunc(cycle, func(d Decision) bool { return d.Kind == DecisionSchedule && d.Machine.Seq == id.Seq }) {
			return false
		}
	}
	c.bug = &Bug{Kind: BugLiveness, Monitor: mon.id.Type, State: mon.state(),
		Message: fmt.Sprintf("%s stays hot in state %q around a fair cycle of length %d: the state at decision %d recurs at decision %d",
			mon, mon.state(), j-i, i, j)}
	return true
}

// sent closes a send of ev by machine sm to target: the step's footprint
// (the target's queue changed), sm's chain log and the send's scheduling
// point (Section 6.2).
func (c *controller) sent(sm *machineInstance, target MachineID, ev Event) {
	if c.observing {
		c.stepTarget = target
	}
	if sm.logged() {
		sm.note(chainOp{kind: opSend, v: target.Seq, typ: reflect.TypeOf(ev)})
	}
	sm.yieldPoint()
}

// created closes a create by machine creator, as sent closes a send. The
// machine is Seq seq or, while creator catches up, the one its log says.
func (c *controller) created(creator *machineInstance, seq uint64) MachineID {
	if creator.logged() {
		seq = creator.note(chainOp{kind: opCreate, v: seq}).v
	}
	id := c.rt.machines[seq-1].id
	if c.observing {
		c.stepCreated = id
	}
	creator.yieldPoint() // create-machine is a scheduling point
	return id
}

// endStep closes the step c.current just executed, on the stack that
// learned it was over: the hash components of the machine that stepped and
// of the one it sent to are stale (a state, a queue or a continuation moved;
// a machine it created was marked by onCreate) and what its chain logged in
// the step is folded (see foldChain), the strategy learns the step's
// footprint and a detected race may become the bug.
func (c *controller) endStep() {
	if h := c.hasher; h != nil {
		if t := c.stepTarget.Seq; t != 0 {
			h.stale(c.rt.machines[t-1])
		}
		m := c.rt.machines[c.current.Seq-1]
		h.foldChain(m)
		h.stale(m)
	}
	if c.stepObs != nil {
		c.stepObs.ObserveStep(StepOp{
			Machine:  c.current,
			Target:   c.stepTarget,
			Created:  c.stepCreated,
			Observed: c.stepObserved,
		})
	}
	if c.det != nil && c.cfg.RaceAsBug && c.bug == nil {
		if races := c.det.Races(); len(races) > 0 {
			c.bug = &Bug{Kind: BugDataRace, Machine: c.current, Message: races[0].String()}
		}
	}
}

// checkState hashes the global state at this point for what asks for it —
// the lasso table while a monitor is hot, and cfg.StateCache — and reports
// whether the iteration ends here: at a fair lasso, at a state the cache has
// covered (pruned), or at state that cannot be hashed under a cache, with
// c.err set; without one, such state ends only the search for lassos. Inside
// the prefix the strategy promised to repeat, where the previous iteration
// passed, both answers are known to be false and neither is asked (see
// StateCache; rewind keeps what the prefix wrote to the lasso table).
func (c *controller) checkState(h *stateHasher) bool {
	var mon *machineInstance
	if c.live && c.unchecked == nil {
		mon = c.hotMonitor()
	}
	cache := c.cfg.StateCache
	if mon == nil && cache == nil {
		return false
	}
	if len(c.trace.Decisions) < h.replayTo {
		if cache != nil {
			h.replayed++
		}
		return false
	}
	state := c.stateHash()
	if h.err != nil {
		if cache == nil {
			// The next Run inherits no table with a hole in it.
			c.unchecked, h.err = h.err, nil
			c.key = inheritKey{}
			return false
		}
		// Part of the state has no hash: nothing may be decided on the rest.
		c.err = h.err
		return true
	}
	if mon != nil && c.lasso(state, mon) {
		return true
	}
	if cache == nil {
		return false
	}
	c.pruned = cache.Visit(state, h.prefix, c.steps)
	return c.pruned
}

// stateHash returns the hash of the global state at the current scheduling
// point: the XOR of the machines' components (rehashing only those marked
// stale since the last point) folded with every monitor's freshly hashed
// state.
func (c *controller) stateHash() uint64 {
	h := c.hasher
	for _, m := range h.dirty {
		neu := h.hashMachine(m)
		h.agg ^= m.comp ^ neu
		m.comp, m.stale = neu, false
	}
	h.dirty = h.dirty[:0]
	s := h.agg
	for _, mon := range c.rt.monitors {
		s ^= h.hashMonitor(mon)
	}
	return s
}

// teardown ends the run of every machine of ms that still has a run frame
// on its coroutine. Resumed with the abort flag up, a machine blocked on its
// queue — between handlers — returns out of run (parkBlocked); one parked
// mid-handler panics abortSignal out of park. Either is back at the top of
// poolLoop by the time next returns. Machines that finished, or were created
// but never scheduled, are already parked there. ms is the last iteration's
// machines — whose teardown is deferred to the next rewind while the harness
// holds checkpoints (see TestHarness.Run) — or, at a restore, those of them
// it does not keep (controller.keep).
func (c *controller) teardown(ms []*machineInstance) {
	c.aborting = true
	for _, m := range ms {
		if m.started {
			m.next()
		}
	}
	c.aborting = false
}

// idle tears the last iteration down and returns every machine and monitor
// instance to the freelist.
func (c *controller) idle() {
	c.teardown(c.rt.machines)
	c.rt.machines = c.release(c.rt.machines)
	c.rt.monitors = c.release(c.rt.monitors)
}

// RunTest executes one bug-finding iteration: it builds a serialized
// runtime, runs setup (which registers machine types and creates the test
// harness machines), then schedules machines one at a time under
// cfg.Strategy until the program quiesces, a bug is found, or the depth
// bound is reached. This is the paper's embedded-scheduler testing mode
// (Section 6.2): fully automatic, no false positives, and the returned
// trace replays the iteration deterministically.
//
// RunTest is a thin wrapper over a one-shot TestHarness; callers running
// many iterations of the same program (like the sct engine) should hold a
// TestHarness so runtime machinery is recycled instead of rebuilt. The
// result's Trace is the caller's own: a copy, because the harness's buffer
// goes back to the reserve when RunTest returns.
func RunTest(setup func(*Runtime), cfg TestConfig) IterationResult {
	h := NewTestHarness(setup)
	defer h.Close()
	res := h.Run(cfg)
	res.Trace = res.Trace.Clone()
	return res
}
