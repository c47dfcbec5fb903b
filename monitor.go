package psharp

import "fmt"

// Specification monitors (paper Section 3: "safety and liveness properties
// are specified with monitors"). A monitor is a synchronous observer
// machine: it has states, event handlers and transitions declared on the
// same Schema builder as a machine, but it owns no event queue and is never
// scheduled. Instead, the runtime dispatches every sent and raised program
// event to each registered monitor synchronously, at the point of the send
// or raise, before the operation's scheduling point. A monitor handles the
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
//     its temperature — and reports BugLiveness when the threshold is
//     exceeded or a monitor is still hot at quiescence.
//
// Monitor actions are passive: they may Assert, Goto, Raise (to the monitor
// itself) and Logf, but must not Send, CreateMachine, Halt, or draw
// controlled nondeterminism — observing a program must not change it.
// Violations are reported as BugMonitor. Because monitors make no
// scheduling or nondeterminism decisions, they add no trace entries: a
// program explores byte-identical schedules with and without its monitors
// attached, and every monitor-found bug replays deterministically from its
// trace like any other bug.
//
// Monitors follow the machine declaration forms: a static monitor
// (StaticMachine) has its schema compiled once per registered name and
// reused across instances and recycled TestHarness iterations; a
// closure-form monitor (Machine) is recompiled per registration.

// monitorInstance is the runtime representation of one registered monitor.
type monitorInstance struct {
	rt     *Runtime
	name   string
	logic  Machine
	schema *compiledSchema
	ctx    *Context

	state string
	// hot caches whether the current state carries the hot annotation.
	hot bool
	// temp is the monitor's temperature: consecutive scheduling decisions
	// spent in a hot state. Maintained by the testing controller when
	// liveness checking is on.
	temp int
}

// RegisterMonitor registers a specification monitor under name and attaches
// a fresh instance to the runtime: from this point on, every sent or raised
// event is dispatched to it synchronously. Like machine registration, the
// factory must be a pure constructor. The initial state's entry action (if
// any) runs here, with a nil event.
//
// Monitor names share the machine-type rules: non-empty, no whitespace, no
// duplicate registration. A static monitor's schema is compiled and
// validated once per name and cached — a TestHarness keeps the cache and
// the monitor instance itself across recycled iterations, so re-registering
// the same monitor every iteration costs one logic allocation, not a
// schema rebuild.
func (r *Runtime) RegisterMonitor(name string, factory func() Machine) error {
	if name == "" || factory == nil {
		return fmt.Errorf("psharp: RegisterMonitor(%q): name and factory must be non-empty", name)
	}
	if err := validateTypeName("RegisterMonitor", name); err != nil {
		return err
	}
	logic := factory()

	// Schema resolution shares r.mu with machine registration (the schema
	// caches and the compile counter live there).
	r.mu.Lock()
	schema, known := r.monitorSchemas[name]
	if !known {
		var err error
		schema, err = r.compileMonitorLocked(name, logic)
		if err != nil {
			r.mu.Unlock()
			return err
		}
		if isStatic(logic) {
			r.monitorSchemas[name] = schema // static: compile once per name
		} else {
			r.monitorSchemas[name] = nil // remember the name uses the closure form
		}
	} else if schema == nil || !isStatic(logic) {
		// Rebuild path: the name is cached as closure form (nil entry, whose
		// actions close over the instance), or this registration's logic is
		// a closure form shadowing a cached static schema.
		var err error
		schema, err = r.compileMonitorLocked(name, logic)
		if err != nil {
			r.mu.Unlock()
			return err
		}
	}
	r.mu.Unlock()

	// The monitors list is guarded by monMu: in production mode, machines
	// created before this registration are already running and sending (the
	// SetupMonitored pattern registers monitors after setup), so appending
	// and initializing the instance must be mutually exclusive with
	// observeMonitors. In test mode the lock is uncontended.
	r.monMu.Lock()
	for _, m := range r.monitors {
		if m.name == name {
			r.monMu.Unlock()
			return fmt.Errorf("psharp: monitor %q registered twice", name)
		}
	}
	bug := r.attachMonitor(name, logic, schema).enterInitial()
	r.monMu.Unlock()

	if bug != nil {
		r.monitorFailure(bug)
	}
	return nil
}

// attachMonitor appends a cold monitor instance — under a controller the
// one parked under name by an earlier iteration, if any — to the runtime's
// list: what registration does before the monitor enters its initial state,
// and what a checkpoint restore does before it puts it back in the state it
// was in. The caller holds monMu in production mode.
func (r *Runtime) attachMonitor(name string, logic Machine, schema *compiledSchema) *monitorInstance {
	var mon *monitorInstance
	if c := r.test; c != nil {
		mon = c.acquireMonitor(name)
	}
	if mon == nil {
		mon = &monitorInstance{rt: r, name: name}
		mon.ctx = &Context{rt: r, mon: mon}
	}
	mon.logic, mon.schema = logic, schema
	mon.temp = 0
	r.monitors = append(r.monitors, mon)
	r.monCount.Store(int32(len(r.monitors)))
	return mon
}

// isStatic reports whether logic uses the static declaration form.
func isStatic(logic Machine) bool {
	_, ok := logic.(StaticMachine)
	return ok
}

// compileMonitorLocked builds and validates a monitor schema, configuring
// through whichever declaration form the logic implements — a static
// monitor registered under a closure-cached name must not hit
// StaticBase.Configure's panic. Caller holds r.mu (schemaCompiles).
func (r *Runtime) compileMonitorLocked(name string, logic Machine) (*compiledSchema, error) {
	s := newSchema()
	if sm, ok := logic.(StaticMachine); ok {
		sm.ConfigureType(s)
	} else {
		logic.Configure(s)
	}
	cs, err := s.compileMonitor(name)
	if err != nil {
		return nil, err
	}
	r.schemaCompiles++
	return cs, nil
}

// MustRegisterMonitor is RegisterMonitor that panics on error.
func (r *Runtime) MustRegisterMonitor(name string, factory func() Machine) {
	if err := r.RegisterMonitor(name, factory); err != nil {
		panic(err)
	}
}

// enterInitial places the monitor in its initial state and runs the entry
// action, converting any panic into a monitor bug.
func (mon *monitorInstance) enterInitial() (bug *Bug) {
	mon.state = mon.schema.initial
	st := mon.schema.states[mon.state]
	mon.hot = st.isHot()
	if !st.hasEntry() {
		return nil
	}
	defer mon.convertPanic(&bug)
	return mon.execute(st.onEntry, st.onEntryM, nil)
}

// observe dispatches one observed program event to the monitor. Panics
// escaping monitor actions (failed Asserts, forbidden operations) are
// converted into a BugMonitor attributed to the monitor. This is the
// per-send hot path: the method-value defer keeps it allocation-free, so
// observation costs nothing beyond the dispatch itself.
func (mon *monitorInstance) observe(ev Event) (bug *Bug) {
	disp, ok := mon.schema.lookup(mon.state, eventKey(ev))
	if !ok {
		return nil // monitors handle only the events their current state binds
	}
	defer mon.convertPanic(&bug)
	return mon.dispatch(disp, ev)
}

// convertPanic is the deferred panic-to-bug conversion shared by the
// monitor dispatch entry points.
func (mon *monitorInstance) convertPanic(bug **Bug) {
	if r := recover(); r != nil {
		msg := fmt.Sprint(r)
		if v, ok := r.(assertFailed); ok {
			msg = v.msg
		}
		*bug = &Bug{Kind: BugMonitor, Monitor: mon.name, State: mon.state, Message: msg}
	}
}

func (mon *monitorInstance) dispatch(disp dispatchEntry, ev Event) *Bug {
	switch disp.kind {
	case dispatchIgnore:
		return nil
	case dispatchGoto:
		return mon.gotoState(disp.target, ev)
	case dispatchAction:
		return mon.execute(disp.action, disp.maction, ev)
	default:
		return &Bug{Kind: BugMonitor, Monitor: mon.name, State: mon.state, Message: "corrupt monitor dispatch table"}
	}
}

// execute runs a bound monitor action and applies its pending effect.
// Raised events chain synchronously through the monitor's own dispatch
// (monitors have no queue to round-trip through).
func (mon *monitorInstance) execute(fn Action, mfn MachineAction, ev Event) *Bug {
	mon.ctx.resetPending()
	mon.ctx.currentEvent = ev
	if mfn != nil {
		mfn(mon.logic, mon.ctx, ev)
	} else {
		fn(mon.ctx, ev)
	}
	return mon.applyPending(ev)
}

func (mon *monitorInstance) applyPending(trigger Event) *Bug {
	halt, gotoState, raised := mon.ctx.takePending()
	if halt {
		// Context.Halt already rejects monitors; this guards the invariant.
		return &Bug{Kind: BugMonitor, Monitor: mon.name, State: mon.state, Message: "monitors cannot Halt"}
	}
	if gotoState != "" {
		return mon.gotoState(gotoState, trigger)
	}
	if raised != nil {
		disp, ok := mon.schema.lookup(mon.state, eventKey(raised))
		if !ok {
			return &Bug{Kind: BugMonitor, Monitor: mon.name, State: mon.state,
				Message: fmt.Sprintf("raised event %s cannot be handled in state %q", eventName(raised), mon.state)}
		}
		return mon.dispatch(disp, raised)
	}
	return nil
}

// gotoState exits the current monitor state, enters target, updates the hot
// flag, and runs target's entry action with the observed event as payload.
// Entering a non-hot state discharges the liveness obligation: the
// temperature resets so a later hot period is measured from zero.
func (mon *monitorInstance) gotoState(target string, payload Event) *Bug {
	cur := mon.schema.states[mon.state]
	if cur != nil && cur.hasExit() {
		mon.ctx.resetPending()
		if cur.onExitM != nil {
			cur.onExitM(mon.logic, mon.ctx)
		} else {
			cur.onExit(mon.ctx)
		}
		if halt, g, r := mon.ctx.takePending(); halt || g != "" || r != nil {
			return &Bug{Kind: BugMonitor, Monitor: mon.name, State: mon.state,
				Message: "monitor exit actions must not call Goto, Raise or Halt"}
		}
	}
	if mon.rt.logging() {
		mon.rt.logf("monitor %s: %q -> %q", mon.name, mon.state, target)
	}
	mon.state = target
	st := mon.schema.states[target]
	if !st.isHot() {
		mon.temp = 0
	}
	mon.hot = st.isHot()
	if st.hasEntry() {
		return mon.execute(st.onEntry, st.onEntryM, payload)
	}
	return nil
}

// observeMonitors dispatches one program event to every registered monitor;
// called synchronously at Send and Raise operations, before their scheduling
// points. In production mode dispatch is serialized behind monMu (machines
// run concurrently, and registration may still be appending); the atomic
// counter keeps the no-monitor fast path lock-free. The testing runtime is
// already serialized and skips the lock.
func (r *Runtime) observeMonitors(ev Event) {
	if c := r.test; c == nil {
		if r.monCount.Load() == 0 {
			return
		}
		r.monMu.Lock()
		defer r.monMu.Unlock()
		r.metrics.MonitorDispatches.Add(int64(len(r.monitors)))
	} else {
		if len(r.monitors) == 0 {
			return
		}
		if c.observing {
			// Monitor verdicts are order-sensitive global state: mark the
			// executing step monitor-observed so DPOR treats any two observed
			// steps as dependent, and note that the monitors' hash components
			// may have moved.
			c.stepObserved = true
		}
		c.counts.monitorDispatches += int64(len(r.monitors))
	}
	for _, mon := range r.monitors {
		if bug := mon.observe(ev); bug != nil {
			r.monitorFailure(bug)
			return
		}
	}
}

// monitorFailure routes a monitor-detected bug: the testing controller
// records it as the iteration's bug (the scheduling loop stops at the next
// decision), the production runtime fails as with any machine bug. Monitor
// dispatch happens on the observing sender's stack, but in test mode
// execution is serialized by the coroutine switches, so the write is ordered.
func (r *Runtime) monitorFailure(bug *Bug) {
	if c := r.test; c != nil {
		if c.bug == nil {
			c.bug = bug
		}
		return
	}
	r.fail(bug)
}
