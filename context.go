package psharp

import (
	"fmt"

	"github.com/psharp-go/psharp/internal/vclock"
)

// Context is the handle actions use to interact with the runtime: sending
// events, creating machines, controlled nondeterminism, assertions, and
// state-machine effects (Goto/Raise/Halt). A Context is only valid inside
// the action it is passed to.
//
// A monitor is a machine that observes (see RegisterMonitor), and its
// actions receive the same Context, restricted: Assert, Goto, Raise, Logf,
// ID and State work as for machines, but Send, CreateMachine, Halt,
// RandomBool, RandomInt, Read and Write are forbidden — a specification
// monitor passively observes the program and must not influence it. Calling
// a forbidden operation fails the iteration with BugMonitor. Messages and log
// lines name a monitor as "monitor Name".
type Context struct {
	m *machineInstance

	pendingGoto  *stateSpec
	pendingRaise Event
	pendingHalt  bool
}

// monitorForbids panics (reported as BugMonitor by the observing dispatch)
// when a monitor action calls an operation reserved for machines.
func (c *Context) monitorForbids(op string) {
	if c.m.monitor() {
		panic(assertFailed{msg: fmt.Sprintf("monitors cannot %s: they are passive observers", op)})
	}
}

func (c *Context) resetPending() {
	c.pendingGoto = nil
	c.pendingRaise = nil
	c.pendingHalt = false
}

func (c *Context) takePending() (halt bool, gotoState *stateSpec, raised Event) {
	halt, gotoState, raised = c.pendingHalt, c.pendingGoto, c.pendingRaise
	c.resetPending()
	return halt, gotoState, raised
}

// ID returns the machine's identifier. For a monitor context the ID carries
// the monitor's name with a zero sequence (monitors are not schedulable
// machines, so their IDs are never valid send targets).
func (c *Context) ID() MachineID { return c.m.id }

// State returns the name of the machine's (or monitor's) current state.
func (c *Context) State() string { return c.m.state() }

// Send enqueues ev in target's event queue. In bug-finding mode this is a
// scheduling point (the paper's send operation, Section 6.2).
func (c *Context) Send(target MachineID, ev Event) {
	c.monitorForbids("Send")
	if ev == nil {
		panic(assertFailed{msg: fmt.Sprintf("%s: Send of nil event", c.m.id)})
	}
	if target.IsNil() {
		panic(assertFailed{msg: fmt.Sprintf("%s: Send(%s) to nil machine", c.m.id, eventName(ev))})
	}
	if t := c.m.rt.test; t != nil {
		t.send(target, ev, c.m, true)
	} else {
		c.m.rt.enqueue(target, ev, c.m, true)
	}
}

// CreateMachine instantiates a new machine of the registered type and
// returns its ID. payload (which may be nil) is passed to the initial
// state's entry action. In bug-finding mode this is a scheduling point.
func (c *Context) CreateMachine(typeName string, payload Event) MachineID {
	c.monitorForbids("CreateMachine")
	var id MachineID
	var err error
	if t := c.m.rt.test; t != nil {
		id, err = t.create(typeName, payload, c.m)
	} else {
		id, err = c.m.rt.create(typeName, payload, c.m)
	}
	if err != nil {
		panic(assertFailed{msg: err.Error()})
	}
	return id
}

// RandomBool returns a controlled nondeterministic boolean. Under the
// testing runtime the value is chosen by the scheduling strategy and
// recorded in the trace, so buggy schedules replay deterministically; under
// the production runtime it is pseudo-random.
func (c *Context) RandomBool() bool {
	c.monitorForbids("RandomBool")
	if t := c.m.rt.test; t != nil {
		return t.nextBool(c.m)
	}
	return c.m.rt.nextRand()&1 == 1
}

// RandomInt returns a controlled nondeterministic integer in [0, n). Under
// the testing runtime n may be at most math.MaxInt32: a trace records the
// value as an int32.
func (c *Context) RandomInt(n int) int {
	c.monitorForbids("RandomInt")
	if n <= 0 {
		panic(assertFailed{msg: fmt.Sprintf("%s: RandomInt(%d): n must be positive", c.m.id, n)})
	}
	if t := c.m.rt.test; t != nil {
		return t.nextInt(c.m, n)
	}
	return int(c.m.rt.nextRand() % uint64(n))
}

// Assert checks a safety property; a violation is reported as a bug (and in
// bug-finding mode terminates the iteration with a replayable trace).
func (c *Context) Assert(cond bool, format string, args ...any) {
	if !cond {
		panic(assertFailed{msg: fmt.Sprintf(format, args...)})
	}
}

// Goto requests a transition to the named state once the current action
// returns. The target state's entry action receives the event that was
// being handled. At most one of Goto/Raise/Halt may be pending.
func (c *Context) Goto(state string) {
	c.checkNoPending("Goto")
	st, ok := c.m.schema.states[state]
	if !ok {
		panic(assertFailed{msg: fmt.Sprintf("%s: Goto(%q): no such state", c.m, state)})
	}
	c.pendingGoto = st
}

// Raise requests that ev be handled immediately after the current action
// returns, bypassing the event queue.
func (c *Context) Raise(ev Event) {
	c.checkNoPending("Raise")
	if ev == nil {
		panic(assertFailed{msg: fmt.Sprintf("%s: Raise of nil event", c.m)})
	}
	c.pendingRaise = ev
}

// Halt terminates the machine once the current action returns; queued
// events are dropped and later sends to it are discarded.
func (c *Context) Halt() {
	c.monitorForbids("Halt")
	c.checkNoPending("Halt")
	c.pendingHalt = true
}

func (c *Context) checkNoPending(op string) {
	if c.pendingGoto != nil || c.pendingRaise != nil || c.pendingHalt {
		panic(assertFailed{msg: fmt.Sprintf("%s: %s: another Goto/Raise/Halt is already pending", c.m, op)})
	}
}

// Logf writes a formatted message to the runtime log (if configured);
// without one it formats nothing.
func (c *Context) Logf(format string, args ...any) {
	if rt := c.m.rt; rt.logging() {
		rt.logf("%s: %s", c.m, fmt.Sprintf(format, args...))
	}
}

// Read instruments a read of the named shared location for the
// happens-before race detector (active only in RD-on testing mode; a no-op
// otherwise). Race-free P# programs never trigger reports, which is exactly
// what makes the paper's RD-off optimization sound once the static analysis
// has verified the program.
func (c *Context) Read(location string) {
	c.access("Read", location, vclock.Read)
}

// Write instruments a write of the named shared location; see Read.
func (c *Context) Write(location string) {
	c.access("Write", location, vclock.Write)
}

// access feeds the happens-before race detector, which only a testing
// runtime in RD-on mode has.
func (c *Context) access(op, location string, kind vclock.AccessKind) {
	c.monitorForbids(op)
	if t := c.m.rt.test; t != nil && t.det != nil {
		t.det.Access(int(c.m.id.Seq), location, kind)
	}
}
