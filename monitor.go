package psharp

import "fmt"

// Specification monitors (paper Section 3: "safety and liveness properties
// are specified with monitors"). A monitor is a machine that observes events
// instead of receiving them. It is declared on the same Schema builder as a
// machine, and a registered monitor is a machineInstance like any other — the
// same Context, the same handler path (dispatch, execute, applyPending,
// gotoState in machine.go) — with no mailbox, no Seq and no coroutine: it is
// never in Runtime.machines or the controller's ready list, so it is never
// scheduled. Instead, the runtime hands every sent and raised program event to
// each registered monitor synchronously, at the point of the send or raise,
// before the operation's scheduling point (observe). A monitor handles the
// observed events its current state binds and skips all others, so a
// specification only names the events it cares about.
//
// Monitors express two specification classes the machine-local Assert
// cannot:
//
//   - Global safety invariants: a monitor accumulates observations across
//     machines and Asserts over them (e.g. two-phase-commit atomicity over
//     every participant's outcome). A failed monitor assertion ends the
//     iteration with BugMonitor, attributed to the monitor.
//   - Liveness ("something eventually happens"): monitor states carry
//     hot/cold annotations (StateBuilder.Hot, StateBuilder.Cold). A hot
//     state is a pending obligation. Under liveness checking
//     (TestConfig.LivenessTemperature) the testing controller tracks how
//     many consecutive scheduling decisions each monitor has spent hot —
//     its temperature, which entering a state that is not hot resets — and
//     reports BugLiveness when the threshold is exceeded or a monitor is
//     still hot at quiescence.
//
// Monitor actions are passive: they may Assert, Goto, Raise (to the monitor
// itself) and Logf, but must not Send, CreateMachine, Halt, or draw
// controlled nondeterminism — observing a program must not change it. What
// escapes a monitor's actions — a failed Assert, a forbidden operation, any
// other panic, or a bug the handler path returns (a raise the state cannot
// handle, an exit action requesting an effect) — becomes a BugMonitor in
// exactly two places: observe and the initial entry (start). Because
// monitors make no scheduling or nondeterminism decisions, they add no trace
// entries: a program explores byte-identical schedules with and without its
// monitors attached, and every monitor-found bug replays deterministically
// from its trace like any other bug.
//
// Monitors are declared in the static form only (StaticMachine), like every
// machine but the closure-form ones the repository's benchmark still
// declares: a monitor's schema is compiled once per process per (name, probe
// value) and reused across Runtimes and recycled TestHarness iterations, and
// its state is its logic value, which the state cache hashes and a
// checkpoint copies. RegisterMonitor refuses any other logic.

// RegisterMonitor registers a specification monitor under name and attaches
// a fresh instance to the runtime: from this point on, every sent or raised
// event is dispatched to it synchronously. The factory is the monitor's
// Register and CreateMachine in one: like a machine factory it must be a pure
// constructor, and its one call per registration is both the probe a static
// schema is looked up by and the monitor's logic. The initial state's entry
// action (if any) runs here, with a nil event.
//
// Monitor names share the machine-type rules: non-empty, no whitespace, no
// duplicate registration. They are bound to schemas apart from machine type
// names, with Register's rules: a static monitor's schema comes from the same
// process-wide table as a static machine's, keyed by name and by the value
// the factory returned before the monitor ran; a TestHarness also keeps the
// name's binding across recycled iterations and recycles the monitor's
// instance like a machine's, so re-registering the same monitor every
// iteration costs one logic allocation, not a lookup or a schema rebuild.
// A factory whose value is not a StaticMachine is refused with an error
// naming the monitor.
func (r *Runtime) RegisterMonitor(name string, factory func() Machine) error {
	if name == "" || factory == nil {
		return fmt.Errorf("psharp: RegisterMonitor(%q): name and factory must be non-empty", name)
	}
	if err := validateTypeName("RegisterMonitor", name); err != nil {
		return err
	}
	logic, ok := factory().(StaticMachine)
	if !ok {
		return fmt.Errorf("psharp: monitor %q is not a StaticMachine: monitors are declared by ConfigureType", name)
	}
	r.mu.Lock()
	schema, known := r.monitorSchemas[name]
	var err error
	if !known {
		if schema, err = r.staticSchemaLocked(name, logic, true); err == nil {
			r.monitorSchemas[name] = schema
		}
	}
	r.mu.Unlock()
	if err != nil {
		return err
	}

	// The monitors list is guarded by monMu: in production mode, machines
	// created before this registration are already running and sending (the
	// SetupMonitored pattern registers monitors after setup), so appending
	// and initializing the instance must be mutually exclusive with
	// observation. In test mode the lock is uncontended.
	r.monMu.Lock()
	for _, m := range r.monitors {
		if m.id.Type == name {
			r.monMu.Unlock()
			return fmt.Errorf("psharp: monitor %q registered twice", name)
		}
	}
	bug := r.attachMonitor(MachineID{Type: name}, logic, schema).start()
	r.monMu.Unlock()

	if bug == nil {
		return nil
	}
	if c := r.test; c == nil {
		r.fail(bug)
	} else if c.bug == nil {
		c.bug = bug
	}
	return nil
}

// attachMonitor appends a monitor instance in no state yet — under a
// controller one recycled like a machine's — to the runtime's list: what
// registration does before the monitor enters its initial state, and what a
// checkpoint restore does before it puts the monitor back in the state it
// was in. id names the monitor with a zero Seq. The caller holds monMu in
// production mode.
func (r *Runtime) attachMonitor(id MachineID, logic Machine, schema *compiledSchema) *machineInstance {
	var m *machineInstance
	if c := r.test; c != nil {
		m = c.acquireInstance(r, id, logic, schema)
	} else {
		m = newMachineInstance(r, id, logic, schema)
	}
	r.monitors = append(r.monitors, m)
	r.monCount.Store(int32(len(r.monitors)))
	return m
}

// MustRegisterMonitor is RegisterMonitor that panics on error.
func (r *Runtime) MustRegisterMonitor(name string, factory func() Machine) {
	if err := r.RegisterMonitor(name, factory); err != nil {
		panic(err)
	}
}

// monitor reports whether m is a specification monitor: the one kind of
// instance without a Seq.
func (m *machineInstance) monitor() bool { return m.id.Seq == 0 }

// start places monitor m in its initial state and runs the state's entry
// action, if any, on a nil event.
func (m *machineInstance) start() (bug *Bug) {
	m.enter(m.schema.initial)
	entry := m.st.entry
	if entry == nil {
		return nil
	}
	defer m.monitorBug(&bug)
	return m.execute(entry, nil)
}

// observe hands one program event to monitor m, whose handler path runs it
// if m's current state binds it. This is the per-send hot path: the
// method-value defer keeps it allocation-free, so observation costs nothing
// beyond the dispatch itself.
func (m *machineInstance) observe(ev Event) (bug *Bug) {
	disp := m.st.find(ev)
	if disp == nil {
		return nil // monitors handle only the events their current state binds
	}
	defer m.monitorBug(&bug)
	return m.dispatch(disp, ev)
}

// monitorBug, deferred by observe and start, turns what escaped monitor m's
// actions — a panic, or the bug its handler path returned — into a
// BugMonitor attributed to m, in the state m is in.
func (m *machineInstance) monitorBug(bug **Bug) {
	if v := recover(); v != nil {
		*bug = m.panicBug(v)
	}
	if b := *bug; b != nil {
		*bug = &Bug{Kind: BugMonitor, Monitor: m.id.Type, State: m.state(), Message: b.Message}
	}
}

// observeMonitors dispatches one program event to every registered monitor,
// in the runtime's mode: called synchronously at Send and Raise operations,
// before their scheduling points.
func (r *Runtime) observeMonitors(ev Event) {
	if c := r.test; c != nil {
		c.observe(ev)
		return
	}
	r.observe(ev)
}

// observe is the production runtime's observation. Dispatch is serialized
// behind monMu (machines run concurrently, and registration may still be
// appending); the atomic counter keeps the no-monitor fast path lock-free.
// A monitor's bug fails the runtime as any machine's does.
func (r *Runtime) observe(ev Event) {
	if r.monCount.Load() == 0 {
		return
	}
	r.monMu.Lock()
	defer r.monMu.Unlock()
	r.metrics.MonitorDispatches.Add(int64(len(r.monitors)))
	for _, m := range r.monitors {
		if bug := m.observe(ev); bug != nil {
			r.fail(bug)
			return
		}
	}
}

// observe is the testing runtime's observation, which execution already
// serializes. A monitor's bug becomes the iteration's, unless it already has
// one; the scheduling loop stops at the next decision.
func (c *controller) observe(ev Event) {
	mons := c.rt.monitors
	if len(mons) == 0 {
		return
	}
	if c.observing {
		// Monitor verdicts are order-sensitive global state: mark the
		// executing step monitor-observed so DPOR treats any two observed
		// steps as dependent, and note that the monitors' hash components
		// may have moved.
		c.stepObserved = true
	}
	c.counts.monitorDispatches += int64(len(mons))
	for _, m := range mons {
		if bug := m.observe(ev); bug != nil {
			if c.bug == nil {
				c.bug = bug
			}
			return
		}
	}
}
