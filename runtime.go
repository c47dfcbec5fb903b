package psharp

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/psharp-go/psharp/internal/splitmix"
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
	// mu guards the tables below. The production runtime takes it to
	// register, to create and to report (Wait, Failure, NumMachines) — not to
	// pass a message: senders find machines through table, and only a send
	// that wakes a machine accounts for work, in an atomic. A testing runtime
	// is serialized by construction — one stack runs at a time and the
	// coroutine switches order everything (see controller) — and its create,
	// send and crash paths are the controller's own (controller.create,
	// controller.send), which take no lock.
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

	// Production-mode accounting: busy counts activations, the outstanding
	// units of work: a create and the send that wakes an idle machine add
	// one, an activation that goes idle or halts takes it away, and one that
	// fails keeps it. Wait sleeps on qcond until it reaches zero
	// (quiescence), a failure is recorded or the runtime is stopped. Only the
	// transition to zero and fail take mu, to wake Wait. A send to an active
	// machine does not touch it. parked counts the events idle machines hold,
	// all of them deferred by their machine's state: added as a machine goes
	// idle with them, taken away by the send that wakes it (an idle machine's
	// mailbox changes only by that send). Nonzero at quiescence, it is a
	// deadlock.
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
		// built per instance (instantiate). A failed compile binds
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
// table and counts a compile it could not avoid. The production runtime's
// callers hold r.mu.
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
	if c := r.test; c != nil {
		return c.create(typeName, payload, nil)
	}
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
	r.send(target, ev, nil, false)
	return nil
}

// send routes ev to target's queue in the runtime's mode: a send from the
// environment, or a deferred raise's re-queue (sm the machine, isMachineSend
// false). A machine's own sends are Context.Send's, which tests the mode
// itself so that it reaches the mode's body in one call.
func (r *Runtime) send(target MachineID, ev Event, sm *machineInstance, isMachineSend bool) {
	if c := r.test; c != nil {
		c.send(target, ev, sm, isMachineSend)
		return
	}
	r.enqueue(target, ev, sm, isMachineSend)
}

// create is the production runtime's create (controller.create is the
// testing runtime's; CreateMachine and Context.CreateMachine call the one of
// their mode): the creator owns the first activation, which runs the initial
// entry action.
func (r *Runtime) create(typeName string, payload Event, creator *machineInstance) (MachineID, error) {
	r.mu.Lock()
	logic, schema, err := r.instantiate(typeName)
	if err != nil {
		r.mu.Unlock()
		return MachineID{}, err
	}
	r.nextSeq++
	id := MachineID{Type: typeName, Seq: r.nextSeq}
	m := newMachineInstance(r, id, logic, schema)
	m.cover = r.cover.block(schema)
	m.active, m.spawn = true, m.activate
	m.birth = payload
	r.busy.Add(1)
	r.machines = append(r.machines, m)
	table := r.machines
	r.table.Store(&table)
	r.mu.Unlock()

	if r.logging() {
		r.logf("created %s", id)
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

// instantiate builds a new machine's logic from its type's factory, and the
// schema it runs on, for both creates and a restart: a static type's, bound
// at registration, or for the closure form one built for the instance —
// unless the form changed between registrations and the logic is static,
// which gets its type's schema (StaticBase.Configure would panic). The
// production runtime's caller holds r.mu.
func (r *Runtime) instantiate(name string) (Machine, *compiledSchema, error) {
	factory, ok := r.factories[name]
	if !ok {
		return nil, nil, fmt.Errorf("psharp: unknown machine type %q", name)
	}
	logic := factory()
	if schema := r.schemas[name]; schema != nil {
		return logic, schema, nil
	}
	if sm, ok := logic.(StaticMachine); ok {
		schema, err := r.staticSchemaLocked(name, sm, false)
		return logic, schema, err
	}
	s := newSchema()
	logic.Configure(s)
	r.schemaCompiles++
	schema, err := s.compile(name, false)
	return logic, schema, err
}

// enqueue is the production runtime's send (controller.send is the testing
// runtime's; Context.Send and Runtime.send call the one of their mode). sm
// is the sending machine, nil for sends from the environment; isMachineSend
// marks sends performed by machine actions (scheduling points in test mode),
// not environment sends or internal re-queues of deferred raised events. It
// finds the target in the published table and locks only its mailbox: a
// send to an idle machine takes ownership, appends to its queue, which has
// no other owner then, and activates it; one to an active machine appends
// to its inbox and touches no process-wide word.
func (r *Runtime) enqueue(target MachineID, ev Event, sm *machineInstance, isMachineSend bool) {
	var sender MachineID
	if sm != nil {
		sender = sm.id
	}
	if isMachineSend || sm == nil {
		// Specification monitors observe the send itself — machine sends and
		// environment sends, but not internal re-queues of deferred raised
		// events, which would double-count one observation — before it is
		// delivered and whether or not the target can still receive it.
		r.observe(ev)
	}
	m := r.machineAt(target.Seq)
	if m == nil {
		r.fail(&Bug{Kind: BugPanic, Machine: sender,
			Message: fmt.Sprintf("send of %s to unknown machine %s", eventName(ev), target)})
		return
	}
	env := envelope{event: ev, sender: sender}
	m.mu.Lock()
	if m.halted {
		m.mu.Unlock()
		r.metrics.DroppedSends.Inc()
		if r.logging() {
			r.logf("dropped %s to halted %s", eventName(ev), target)
		}
		return
	}
	woke := !m.active
	if woke {
		m.active = true
		if n := len(m.queued()); n > 0 {
			r.parked.Add(-int64(n)) // what m went idle with is work again
		}
		m.push(env)
		m.qlen = len(m.queued())
	} else {
		m.inbox = append(m.inbox, env)
	}
	m.sends++
	m.mailboxMax = max(m.mailboxMax, int64(m.qlen+len(m.inbox)))
	m.mu.Unlock()
	if r.logging() {
		r.logf("%s -> %s: %s", sender, target, eventName(ev))
	}
	if woke {
		r.busy.Add(1)
		r.wake(m, sm)
	}
}

// machineAt returns the machine with Seq seq in the table production create
// last published, nil if there is none; senders take no lock for it.
func (r *Runtime) machineAt(seq uint64) *machineInstance {
	t := r.table.Load()
	if t == nil || seq == 0 || seq > uint64(len(*t)) {
		return nil
	}
	return (*t)[seq-1]
}

// deactivated is production-mode work accounting: an activation went idle
// (nextEvent) or halted (drain). The last one out wakes Wait, in a call of
// its own, so that this one inlines.
func (r *Runtime) deactivated() {
	if r.busy.Add(-1) == 0 {
		r.quiesced()
	}
}

func (r *Runtime) quiesced() {
	r.mu.Lock()
	r.qcond.Broadcast()
	r.mu.Unlock()
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
		// Not under mu: a machine going idle takes its mailbox lock first. A
		// machine woken since is its owner's: only an idle one is read.
		for _, m := range *r.table.Load() {
			parked, state := 0, ""
			m.mu.Lock()
			if !m.active {
				parked, state = len(m.queued()), m.state()
			}
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

// nextRand steps the production runtime's SplitMix64 stream.
func (r *Runtime) nextRand() uint64 {
	return splitmix.Mix(r.rngState.Add(splitmix.Golden))
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
