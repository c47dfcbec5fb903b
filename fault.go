package psharp

import "fmt"

// FaultConfig enables fault-injection nondeterminism for one bug-finding
// iteration (TestConfig.Faults). The zero value is valid: every machine is
// fault-eligible and the strategy decides everything else. Which faults are
// actually injected — and how many — is the strategy's business (see
// sct.FaultInjector for PCT-style budgeted injection); the config only
// shapes eligibility.
//
// Fault queries are issued on a fixed cadence whenever the config is
// non-nil: one schedule-level query per scheduler pass and one send-level
// query per machine-to-machine send. Queries against immune machines are
// still issued (marked ineligible) so the query sequence, and therefore the
// trace, is a function of the schedule alone — replaying a fault-era trace
// needs a non-nil FaultConfig but not the original Immune list.
type FaultConfig struct {
	// Immune lists machine types that faults must never touch: they cannot
	// be crashed, and messages sent to them cannot be dropped, duplicated
	// or reordered. Use it to protect the abstraction of a reliable
	// component (a write-ahead log, a network oracle) while the rest of
	// the system misbehaves.
	Immune []string
}

func (fc *FaultConfig) isImmune(typeName string) bool {
	for _, t := range fc.Immune {
		if t == typeName {
			return true
		}
	}
	return false
}

// FaultStats counts the failure actions injected during an iteration (or,
// summed, a whole exploration run). The JSON keys are those of sct's
// campaign report and telemetry snapshot.
type FaultStats struct {
	Crashes    int `json:"crashes,omitempty"`
	Restarts   int `json:"restarts,omitempty"`
	Drops      int `json:"drops,omitempty"`
	Duplicates int `json:"duplicates,omitempty"`
	Reorders   int `json:"reorders,omitempty"`
}

// Add accumulates o into s.
func (s *FaultStats) Add(o FaultStats) {
	s.Crashes += o.Crashes
	s.Restarts += o.Restarts
	s.Drops += o.Drops
	s.Duplicates += o.Duplicates
	s.Reorders += o.Reorders
}

// Total returns the number of injected faults of all kinds.
func (s FaultStats) Total() int {
	return s.Crashes + s.Drops + s.Duplicates + s.Reorders
}

// scheduleFault issues the per-pass fault query and records the answer. It
// returns true when the strategy injects a crash, left in c.crash for loop
// to apply (the pass may be running on the very stack to be unwound), and
// reports strategy protocol violations through c.bug.
func (c *controller) scheduleFault() bool {
	c.crashScratch = c.crashScratch[:0]
	for _, m := range c.rt.machines {
		if m.crashable() {
			c.crashScratch = append(c.crashScratch, m.id)
		}
	}
	eligible := len(c.crashScratch) > 0
	ch := &c.choice
	ch.Kind, ch.Point, ch.Crashable, ch.Eligible = ChoiceFault, FaultPointSchedule, c.crashScratch, eligible
	d := c.ask()
	if d.Kind != DecisionFault {
		c.bug = &Bug{Kind: BugPanic,
			Message: fmt.Sprintf("strategy answered a fault choice with decision kind %d", d.Kind)}
		return false
	}
	f := &d.Fault
	if f.Kind == FaultNone {
		*f = FaultAction{}
		c.trace.commit()
		return false
	}
	if f.Kind != FaultCrash {
		c.bug = &Bug{Kind: BugPanic,
			Message: fmt.Sprintf("strategy injected %s at a schedule fault point (only crash is valid here)", f.Kind)}
		return false
	}
	if m := c.rt.machineAt(f.Machine.Seq); m == nil || !m.crashable() {
		var id MachineID
		if m != nil {
			id = m.id
		}
		c.bug = refused("crashed", f.Machine.Seq, id, "crashable")
		return false
	}
	// Canonicalize: preserving a mailbox only means something across a
	// restart, and the recorded action must be self-contained for replay.
	if !f.Restart {
		f.PreserveMailbox = false
	}
	c.trace.commit()
	c.crash = *f
	return true
}

// crashable reports whether a crash may target m: it is not immune and has
// not halted.
func (m *machineInstance) crashable() bool { return !m.immune && m.status != msHalted }

// crashMachine halts the target mid-schedule. Called from loop, where every
// machine is parked, so the crash is one coroutine round trip: set the
// crashed flag and switch to the machine, which unwinds with a crashSignal
// panic — out of park, or out of run's first check if it was never scheduled
// — and yields ykCrashed. The instance is then marked halted — and
// optionally rebooted in place.
func (c *controller) crashMachine(f FaultAction) {
	m := c.rt.machines[f.Machine.Seq-1]
	// Monitors observe the lifecycle event before the crash takes effect,
	// mirroring how sends are observed before delivery. A monitor state
	// with no binding for MachineCrashed skips it.
	c.rt.observeMonitors(&MachineCrashed{Machine: m.id, Restart: f.Restart})
	c.faults.Crashes++
	m.crashed = true
	m.next()           // yields ykCrashed
	m.handling = false // a crash ends the chain
	m.status = msHalted
	c.readyRemove(m.id)
	m.halted = true
	if !f.PreserveMailbox {
		m.dropQueue()
	}
	if h := c.hasher; h != nil {
		h.stale(m) // its status, its mailbox and, on a restart, its state moved
	}
	if c.rt.logging() {
		c.rt.logf("fault: crashed %s (restart=%v, keepq=%v)", m.id, f.Restart, f.PreserveMailbox)
	}
	if f.Restart {
		c.restartMachine(m)
	}
}

// restartMachine reboots a crashed instance in place: same MachineID (so
// peers' stored references stay valid, modeling a process restart), fresh
// logic from the registered factory, and the creation payload re-delivered
// so the machine reconfigures itself. The coroutine just finished run for
// the crashed incarnation and is parked at the top of poolLoop, so flipping
// the status is all it takes: the next schedule of m starts run on m.birth.
func (c *controller) restartMachine(m *machineInstance) {
	r := c.rt
	factory := r.factories[m.id.Type]
	if factory == nil {
		c.bug = &Bug{Kind: BugPanic, Machine: m.id,
			Message: fmt.Sprintf("cannot restart %s: machine type not registered", m.id)}
		return
	}
	logic := factory()
	schema := r.schemas[m.id.Type]
	if schema == nil {
		// Closure-form machines compile a per-instance schema whose actions
		// close over the logic value, so the new incarnation needs its own.
		var err error
		schema, err = r.compileInstanceLocked(m.id.Type, logic)
		if err != nil {
			c.bug = &Bug{Kind: BugPanic, Machine: m.id,
				Message: fmt.Sprintf("cannot restart %s: %v", m.id, err)}
			return
		}
	}
	m.logic = logic
	m.schema, m.cover = schema, r.cover.block(schema)
	m.st = nil
	m.crashed = false
	m.bug = nil
	m.aborted = false
	m.halted = false
	m.ctx.resetPending()
	m.status = msReady
	c.readyAdd(m.id)
	c.faults.Restarts++
	r.observeMonitors(&MachineRestarted{Machine: m.id})
	if r.logging() {
		r.logf("fault: restarted %s", m.id)
	}
}

// nextSendFault issues the per-send fault query for a message bound for
// target, machine m, and returns the kind of fault to apply to it. Runs on
// the sending machine's coroutine (like nextBool), which is the only one
// running, so trace appends stay serialized. Strategy protocol violations panic
// assertFailed, which run's recover converts to a bug like any other
// in-action failure.
func (c *controller) nextSendFault(target MachineID, m *machineInstance) FaultKind {
	eligible := !m.immune
	ch := &c.choice
	ch.Kind, ch.Point, ch.Target, ch.Eligible = ChoiceFault, FaultPointSend, target, eligible
	d := c.ask()
	if d.Kind != DecisionFault {
		panic(assertFailed{msg: fmt.Sprintf("strategy answered a fault choice with decision kind %d", d.Kind)})
	}
	kind := d.Fault.Kind
	switch kind {
	case FaultNone, FaultDrop, FaultDuplicate, FaultReorder:
	default:
		panic(assertFailed{msg: fmt.Sprintf("strategy injected %s at a send fault point (only drop/dup/reorder are valid here)", kind)})
	}
	if !eligible && kind != FaultNone {
		panic(assertFailed{msg: fmt.Sprintf("strategy injected %s on a send to immune machine %s", kind, target)})
	}
	// Canonicalize the crash-only fields so the recorded action is exactly
	// the send-fault kind.
	d.Fault = FaultAction{Kind: kind}
	c.trace.commit()
	return kind
}
