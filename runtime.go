package psharp

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/psharp-go/psharp/internal/vclock"
)

// Runtime executes P# programs (paper Section 6.1). It keeps the registry
// of machine types, creates machine instances, routes events, and detects
// quiescence and failures. A Runtime operates in one of two modes:
//
//   - production (NewRuntime): machines run concurrently, but a machine has
//     no thread of its own. A send that finds the target idle activates it:
//     some goroutine runs its handlers, one at a time and each seeing what
//     the one before wrote, until nothing in its mailbox is dispatchable, and
//     then lets go of it. Between activations a machine is its struct and
//     its mailbox, so a quiescent Runtime nobody references is garbage
//     whether or not Stop was called. The goroutine that wakes a machine from
//     inside a handler runs that machine itself once its own goes idle
//     (machineInstance.activate), which is why a handler must not block
//     waiting for another machine to make progress: under the testing
//     runtime that deadlocks the iteration, here it can stall the one
//     machine the handler had just woken;
//   - bug-finding (RunTest): execution is serialized under a Strategy.
//
// Either way events from one sender reach one receiver in send order, and
// Wait returns once nothing is outstanding or on the first failure.
type Runtime struct {
	// mu guards the tables below under the production runtime, which takes it
	// to register, to create and to report (Wait, Failure, NumMachines) — not
	// to pass a message: senders find machines through table and account for
	// work in atomics. A testing runtime is serialized by construction — one
	// stack runs at a time and the coroutine switches order everything (see
	// controller) — so its create, send, dequeue, halt and crash paths go
	// through lock/unlock, which do nothing there.
	mu        sync.Mutex
	factories map[string]func() Machine
	machines  []*machineInstance
	nextSeq   uint64
	// table is machines as production create last published it: a reader
	// sees every machine whose ID it can have learnt.
	table atomic.Pointer[[]*machineInstance]

	// schemas binds each registered machine type to its compiled schema. A
	// static type (StaticMachine) is bound at registration to the process's
	// schema for its probe (typeSchemaOf) and every create reuses it; a nil
	// entry records that the type uses the closure form, whose schema must be
	// rebuilt per instance. A TestHarness keeps the bindings across recycled
	// iterations, so re-registering a known name does not even probe.
	schemas map[string]*compiledSchema
	// schemaCompiles counts the schema compilations (both forms) this runtime
	// performed since construction; the compile-once tests observe it.
	schemaCompiles int

	// monitors are the registered specification monitors (see monitor.go):
	// machine instances with no Seq that observe every send and raise
	// synchronously instead of being scheduled.
	monitors []*machineInstance
	// monitorSchemas binds monitor names to their static schemas as schemas
	// binds machine types: the two name spaces are apart.
	monitorSchemas map[string]*compiledSchema
	// monMu guards monitors (list and dispatch) in production mode, where
	// machines send concurrently with each other and with registration; the
	// testing runtime is serialized and skips it on the dispatch path.
	monMu sync.Mutex
	// monCount mirrors len(monitors) so production-mode sends can skip the
	// monMu lock entirely when no monitor is registered.
	monCount atomic.Int32

	test *controller // non-nil in bug-finding mode

	// metrics are the always-on operational counters (see metrics.go); all
	// fields are atomics, so recording needs no lock and never allocates.
	metrics RuntimeMetrics
	// cover records every handled (machine type, state, event) dispatch
	// into its set, when it has one: set by WithCoverage in production mode
	// and by TestConfig.Coverage per bug-finding iteration.
	cover coverage

	// Production-mode accounting: busy counts outstanding units of work
	// (queued events and machine initializations); Wait sleeps on qcond until
	// it reaches zero (quiescence), a failure is recorded or the runtime is
	// stopped. Only the transition to zero and fail take mu, to wake Wait.
	// parked counts the events idle machines hold, which their states defer:
	// moved out of busy when a machine goes idle with them, back in by the
	// send that wakes it (an idle machine's mailbox changes only by that
	// send). Nonzero at quiescence, it is a deadlock.
	busy    atomic.Int64
	parked  atomic.Int64
	qcond   *sync.Cond
	failure *Bug
	stopped atomic.Bool

	rngState atomic.Uint64
	logw     io.Writer
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithLog directs runtime execution logging to w.
func WithLog(w io.Writer) Option { return func(r *Runtime) { r.logw = w } }

// WithSeed seeds the production runtime's pseudo-random choice source.
func WithSeed(seed uint64) Option { return func(r *Runtime) { r.rngState.Store(seed) } }

// NewRuntime returns a production-mode runtime.
func NewRuntime(opts ...Option) *Runtime {
	r := &Runtime{
		factories:      make(map[string]func() Machine),
		schemas:        make(map[string]*compiledSchema),
		monitorSchemas: make(map[string]*compiledSchema),
	}
	r.rngState.Store(1)
	r.qcond = sync.NewCond(&r.mu)
	for _, o := range opts {
		o(r)
	}
	return r
}

// validateTypeName rejects machine-type and monitor names that would
// corrupt the trace format: Trace.Encode writes schedule records as
// "s <type> <seq>" with whitespace-separated fields and no quoting, so a
// name containing whitespace could not round-trip through DecodeTrace.
func validateTypeName(op, name string) error {
	if strings.ContainsAny(name, " \t\n\r") {
		return fmt.Errorf("psharp: %s(%q): name must not contain whitespace (trace records are whitespace-separated)", op, name)
	}
	return nil
}

// Register associates a machine type name with a factory. All machine types
// must be registered before any instance is created (the paper requires
// registration up front so the analyzable machine set is closed).
//
// Registration is where static machine types get their schema: one probe
// instance is taken from the factory, and if it implements StaticMachine the
// schema compiled for an equal probe under the same name is looked up in a
// process-wide table, or compiled and validated here and added to it — so a
// static type compiles once per process per probe value, not once per
// Runtime, and every create reuses the frozen form. Invalid static schemas
// are reported by Register, not create, on every Register: a failed compile
// is never kept. Closure-form (MachineFunc) types are probed once to record
// the form and keep compiling per instance.
//
// Because of the probe, the factory must be a pure constructor: it runs
// once here with the instance discarded, so a factory with side effects
// (shared counters, instance tracking, resource pools) would observe one
// phantom call per registered type.
func (r *Runtime) Register(name string, factory func() Machine) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if name == "" || factory == nil {
		return fmt.Errorf("psharp: Register(%q): name and factory must be non-empty", name)
	}
	if err := validateTypeName("Register", name); err != nil {
		return err
	}
	if _, dup := r.factories[name]; dup {
		return fmt.Errorf("psharp: machine type %q registered twice", name)
	}
	if _, known := r.schemas[name]; !known {
		// Bound to the process's schema for the probe's value if it is
		// static, or to nil, which records the closure form, whose schema is
		// built per instance (compileInstanceLocked). A failed compile binds
		// nothing.
		var cs *compiledSchema
		if sm, ok := factory().(StaticMachine); ok {
			var err error
			if cs, err = r.staticSchemaLocked(name, sm, false); err != nil {
				return err
			}
		}
		r.schemas[name] = cs
	}
	r.factories[name] = factory
	return nil
}

// staticSchemaLocked resolves a static declaration through the process-wide
// table and counts a compile it could not avoid. Caller holds r.mu.
func (r *Runtime) staticSchemaLocked(name string, probe StaticMachine, monitor bool) (*compiledSchema, error) {
	cs, compiled, err := typeSchemaOf(name, probe, monitor)
	if compiled {
		r.schemaCompiles++
	}
	return cs, err
}

// MustRegister is Register that panics on error; convenient in test setups.
func (r *Runtime) MustRegister(name string, factory func() Machine) {
	if err := r.Register(name, factory); err != nil {
		panic(err)
	}
}

// CreateMachine creates a machine from outside any machine (the program's
// environment); the entry action of its initial state runs asynchronously.
func (r *Runtime) CreateMachine(typeName string, payload Event) (MachineID, error) {
	return r.create(typeName, payload, nil)
}

// MustCreate is CreateMachine that panics on error; convenient in test
// setups where a failure to create is a harness bug, not a program bug.
func (r *Runtime) MustCreate(typeName string, payload Event) MachineID {
	id, err := r.CreateMachine(typeName, payload)
	if err != nil {
		panic(err)
	}
	return id
}

// SendEvent sends an event from outside any machine.
func (r *Runtime) SendEvent(target MachineID, ev Event) error {
	if ev == nil {
		return fmt.Errorf("psharp: SendEvent: nil event")
	}
	r.enqueue(target, ev, nil, false)
	return nil
}

// lock and unlock take r.mu under the production runtime only; which kind a
// runtime is, is fixed at construction.
func (r *Runtime) lock() {
	if r.test == nil {
		r.mu.Lock()
	}
}

func (r *Runtime) unlock() {
	if r.test == nil {
		r.mu.Unlock()
	}
}

// create instantiates a machine; creator is nil for environment creates.
func (r *Runtime) create(typeName string, payload Event, creator *machineInstance) (MachineID, error) {
	if creator != nil && creator.replayLog != nil {
		// Catching up after a restore: the machine is in the snapshot.
		return r.test.created(creator, 0), nil
	}
	r.lock()
	factory, ok := r.factories[typeName]
	if !ok {
		r.unlock()
		return MachineID{}, fmt.Errorf("psharp: unknown machine type %q", typeName)
	}
	logic := factory()
	schema := r.schemas[typeName]
	if schema == nil {
		// Closure form: build and validate a schema for this instance.
		// Static types never reach here — their frozen schema was compiled
		// at registration.
		var err error
		schema, err = r.compileInstanceLocked(typeName, logic)
		if err != nil {
			r.unlock()
			return MachineID{}, err
		}
	}
	r.nextSeq++
	id := MachineID{Type: typeName, Seq: r.nextSeq}
	var m *machineInstance
	if c := r.test; c != nil {
		// Bug-finding mode reuses pooled instances and parked coroutines.
		m = c.acquireInstance(r, id, logic, schema)
		r.machines = append(r.machines, m)
	} else {
		// The creator owns the first activation, which runs the initial
		// entry action; until that is done the machine is outstanding work.
		m = newMachineInstance(r, id, logic, schema)
		m.cover = r.cover.block(schema)
		m.active, m.spawn = true, m.activate
		r.busy.Add(1)
		r.machines = append(r.machines, m)
		table := r.machines
		r.table.Store(&table)
	}
	// The creation payload is what boot starts the machine on — again after
	// a FaultCrash with Restart (see controller.restartMachine).
	m.birth = payload
	r.unlock()

	if r.logging() {
		r.logf("created %s", id)
	}
	if c := r.test; c != nil {
		c.counts.creates++
		creatorIdx := 0
		if creator != nil {
			creatorIdx = int(creator.id.Seq)
		}
		c.onCreate(m, creatorIdx)
		if creator != nil {
			return c.created(creator, id.Seq), nil
		}
		return id, nil
	}
	r.metrics.Creates.Inc()
	r.wake(m, creator)
	return id, nil
}

// wake starts the activation of m, whose active bit the caller has just set.
// From the environment that is a goroutine. A handler of waker instead holds
// m back for its own goroutine to run next (see machineInstance.activate),
// giving the machine it held so far a goroutine.
func (r *Runtime) wake(m, waker *machineInstance) {
	if waker == nil {
		go m.spawn()
		return
	}
	if h := *waker.held; h != nil {
		go h.spawn()
	}
	*waker.held = m
}

// compileInstanceLocked builds, validates and freezes a schema for one
// machine whose type is bound to the closure form: the closure declaration
// form's per-instance cost. Static logic under such a name — a form that
// changed between registrations — gets its type's schema instead:
// StaticBase.Configure would panic. Caller holds r.mu.
func (r *Runtime) compileInstanceLocked(name string, logic Machine) (*compiledSchema, error) {
	if sm, ok := logic.(StaticMachine); ok {
		return r.staticSchemaLocked(name, sm, false)
	}
	s := newSchema()
	logic.Configure(s)
	r.schemaCompiles++
	return s.compile(name, false)
}

// enqueue routes an event to target's queue. sm is the sending machine, nil
// for sends from the environment. isMachineSend marks sends performed by
// machine actions (which are scheduling points in test mode); environment
// sends and internal re-queues are not.
func (r *Runtime) enqueue(target MachineID, ev Event, sm *machineInstance, isMachineSend bool) {
	var sender MachineID
	if sm != nil {
		sender = sm.id
	}
	if (isMachineSend || sm == nil) && (sm == nil || sm.replayLog == nil) {
		// Specification monitors observe the send itself — machine sends and
		// environment sends, but not internal re-queues of deferred raised
		// events, which would double-count one observation, nor the sends a
		// restored machine makes again as it catches up. Dispatch happens
		// before the send's scheduling point and regardless of whether the
		// target can still receive the event.
		r.observeMonitors(ev)
	}
	m := r.machineAt(target.Seq)
	c := r.test
	if m == nil {
		msg := fmt.Sprintf("send of %s to unknown machine %s", eventName(ev), target)
		if c != nil && isMachineSend {
			panic(assertFailed{msg: msg})
		}
		bug := &Bug{Kind: BugPanic, Machine: sender, Message: msg}
		if c == nil {
			r.fail(bug)
		} else if c.bug == nil {
			c.bug = bug // the environment's send: the iteration's bug
		}
		return
	}
	if c != nil && c.cfg.ChessLike && isMachineSend {
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

	// The per-send fault query: issued on the sending machine's stack
	// for every machine send when faults are enabled, before delivery, so
	// the query sequence is a function of the schedule alone. Sends to an
	// already-halted target ignore the answer (there is nothing to fault).
	fault := FaultNone
	if c != nil && isMachineSend && c.cfg.Faults != nil {
		fault = c.nextSendFault(target, m)
	}

	var clock vclock.VC
	if c != nil && c.det != nil {
		clock = c.det.Send(int(sender.Seq))
	}

	// Under a controller the counters are plain words of its own (one stack
	// runs at a time; TestHarness.Run folds them into r.metrics); production
	// senders share atomics.
	m.lock()
	if m.halted {
		m.unlock()
		if c != nil {
			c.counts.dropped++
		} else {
			r.metrics.DroppedSends.Inc()
		}
		if r.logging() {
			r.logf("dropped %s to halted %s", eventName(ev), target)
		}
	} else if fault == FaultDrop {
		m.unlock()
		c.faults.Drops++
		c.counts.dropped++
		if r.logging() {
			r.logf("fault: dropped %s to %s", eventName(ev), target)
		}
	} else {
		env := envelope{event: ev, sender: sender, clock: clock}
		woke := false
		if c == nil {
			woke, m.active = !m.active, true
			parked := 0
			if woke {
				parked = len(m.queued()) // what m went idle with is work again
			}
			r.busy.Add(int64(1 + parked))
			if parked > 0 {
				r.parked.Add(-int64(parked))
			}
		}
		m.push(env)
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
		depth := int64(len(m.queued()))
		m.unlock()
		if r.logging() {
			r.logf("%s -> %s: %s", sender, target, eventName(ev))
		}
		if c != nil {
			c.counts.sends++
			c.counts.mailboxMax = max(c.counts.mailboxMax, depth)
			c.onEnqueue(m)
		} else {
			r.metrics.Sends.Inc()
			r.metrics.MailboxMax.Observe(depth)
			if woke {
				r.wake(m, sm)
			}
		}
	}

	if c != nil && isMachineSend {
		c.sent(sm, target, ev)
	}
}

// machineAt returns the machine with Seq seq, nil if there is none;
// production senders take no lock for it.
func (r *Runtime) machineAt(seq uint64) *machineInstance {
	var ms []*machineInstance
	if r.test != nil {
		ms = r.machines
	} else if t := r.table.Load(); t != nil {
		ms = *t
	}
	if seq == 0 || seq > uint64(len(ms)) {
		return nil
	}
	return ms[seq-1]
}

// consumed is production-mode work accounting: n units of outstanding work —
// queued events handled, ignored or dropped by a halt, a completed
// initialization — are done. The last one out wakes Wait.
func (r *Runtime) consumed(n int) {
	if r.test == nil && n > 0 && r.busy.Add(-int64(n)) == 0 {
		r.mu.Lock()
		r.qcond.Broadcast()
		r.mu.Unlock()
	}
}

// fail records the first failure (none for a plain Stop) and stops the
// runtime: every activation ends at its next dequeue, and Wait returns.
func (r *Runtime) fail(b *Bug) {
	r.mu.Lock()
	if r.failure == nil {
		r.failure = b
	}
	r.stopped.Store(true)
	r.qcond.Broadcast()
	r.mu.Unlock()
}

// Failure returns the first recorded failure, if any.
func (r *Runtime) Failure() *Bug {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failure
}

// Wait blocks until the program is quiescent — every machine idle, and
// every queue empty or holding only events its machine's state defers — or
// a failure has been recorded, which it returns. Deferred events left at
// quiescence can never be handled: Wait returns that deadlock as a *Bug of
// kind BugDeadlock naming a machine that holds them. Only valid in
// production mode.
func (r *Runtime) Wait() error {
	if r.test != nil {
		panic("psharp: Wait is not available in bug-finding mode")
	}
	r.mu.Lock()
	for r.busy.Load() > 0 && r.failure == nil && !r.stopped.Load() {
		r.qcond.Wait()
	}
	failure, stopped := r.failure, r.stopped.Load()
	r.mu.Unlock()
	if failure != nil {
		return failure
	}
	if !stopped && r.parked.Load() > 0 {
		// Not under mu: a machine going idle takes its mailbox lock first.
		for _, m := range *r.table.Load() {
			m.mu.Lock()
			parked, state := len(m.queued()), m.state()
			m.mu.Unlock()
			if parked > 0 {
				return &Bug{Kind: BugDeadlock, Machine: m.id, State: state,
					Message: "all machines blocked but deferred events remain queued"}
			}
		}
	}
	return nil
}

// Stop shuts the runtime down: activations end at their next dequeue and
// whatever is still queued stays unhandled. A quiescent runtime has nothing to
// shut down — no goroutine outlives the last handler — so Stop after Wait is
// optional.
func (r *Runtime) Stop() { r.fail(nil) }

// NumMachines returns how many machines have been created so far.
func (r *Runtime) NumMachines() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.machines)
}

// randomBool resolves a controlled nondeterministic boolean choice.
func (r *Runtime) randomBool(m *machineInstance) bool {
	if c := r.test; c != nil {
		return c.nextBool(m)
	}
	return r.nextRand()&1 == 1
}

// randomInt resolves a controlled nondeterministic integer choice in [0,n).
func (r *Runtime) randomInt(m *machineInstance, n int) int {
	if c := r.test; c != nil {
		return c.nextInt(m, n)
	}
	return int(r.nextRand() % uint64(n))
}

// nextRand steps the production-mode SplitMix64 generator.
func (r *Runtime) nextRand() uint64 {
	return mix64(r.rngState.Add(0x9e3779b97f4a7c15))
}

// access feeds the happens-before race detector in RD-on mode.
func (r *Runtime) access(m *machineInstance, location string, kind vclock.AccessKind) {
	c := r.test
	if c == nil || c.det == nil {
		return
	}
	c.det.Access(int(m.id.Seq), location, kind)
}

// logging reports whether execution logging is enabled. Hot paths check it
// before calling logf so a disabled log costs no interface boxing.
func (r *Runtime) logging() bool { return r.logw != nil }

func (r *Runtime) logf(format string, args ...any) {
	if r.logw == nil {
		return
	}
	fmt.Fprintf(r.logw, "[psharp] "+format+"\n", args...)
}
