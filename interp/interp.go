// Package interp executes core-language programs under the paper's
// operational semantics (Section 4, Figures 3 and 4): a shared heap,
// per-machine configurations with event queues, and machine transitions
// driven by the transition function. Scheduling between machines is
// controlled (seeded random or a custom scheduler), and an optional
// happens-before race detector observes every field access performed by
// the MBR-ASSIGN rules — which is how the racy Table 1 benchmark variants
// are confirmed to race dynamically, cross-validating the static analysis.
//
// # Bytecode execution
//
// Two evaluators implement the semantics, selected by Options.Engine. The
// reference tree-walker (eval.go) re-traverses the AST on every handler
// dispatch; the default bytecode engine compiles each machine, monitor,
// and class method body once per loaded Program into compact stack-machine
// bytecode (compile.go) and runs it on an operand-stack VM (vm.go). The
// compiler reads the indices lang.Check gave every event, class, machine,
// state, method, field and frame variable, so the VM's hot path does no
// string hashing and no per-dispatch allocation; a fusion pass then collapses common instruction pairs into
// superinstructions (assign-from-field, compare-and-branch, send-locals,
// and similar shapes) until a fixpoint, roughly halving dynamic
// instruction count on the Table 1 corpus. Compiled programs are cached on
// the Program via lang's AuxLoad/AuxStore hook — concurrent Runs of the
// same Program share one compilation (a sync.Once per Program), and VM
// instance state is pooled per Program, so a steady-state schedule
// allocates nothing.
//
// Both engines are observationally identical, not just bug-for-bug: the
// differential corpus harness (differential_test.go) runs every Table 1
// benchmark, racy and non-racy, under both engines across many seeds and
// requires identical step counts, quiescence, fault strings, race
// reports, hot monitors, and coverage sets. That works because the VM
// preserves the walker's dispatch precedence (ignore > defer > goto > do),
// its raised-event goto path, its race-detector access order, and its
// monitor observation points instruction for instruction. The walker
// stays selectable (Options.Engine = EngineWalk, -interp=walk in the
// CLIs) as the semantic baseline; Disassemble prints the compiled
// listing. On the corpus the VM runs roughly an order of magnitude more
// schedules per second than the walker: bash bench/run.sh reports both as
// interp.vm_ns_per_step and interp.walk_ns_per_step, and BENCHMARK.json
// bounds the psl_interp workload's ops_per_s.
package interp

import (
	"errors"
	"fmt"

	"github.com/psharp-go/psharp/internal/splitmix"
	"github.com/psharp-go/psharp/internal/vclock"
	"github.com/psharp-go/psharp/lang"
	"github.com/psharp-go/psharp/obs"
)

// Value is a runtime value: int64, bool, Ref, MachineID, or Null.
type Value interface{ isValue() }

// Int is a scalar integer.
type Int int64

// Bool is a scalar boolean.
type Bool bool

// Ref is a heap reference.
type Ref int

// MachineID identifies a machine instance.
type MachineID int

// Null is the null reference.
type Null struct{}

func (Int) isValue()       {}
func (Bool) isValue()      {}
func (Ref) isValue()       {}
func (MachineID) isValue() {}
func (Null) isValue()      {}

// object is a heap object: rule NEW-ASSIGN allocates one slot per member
// variable, initialized to an undefined value (we use Null). ref is the
// heap index, which names the object to the race detector — a stable
// identity both engines derive the same way, so race reports compare
// byte for byte across them.
type object struct {
	class  string
	ref    int
	fields map[string]Value
}

type message struct {
	event   string
	payload Value // nil when the event carries no payload
	clock   vclock.VC
}

// machineInst is one machine configuration (m, q, E, ...). Its dispatch
// behavior lives in the shared, per-declaration compiled schema (reached
// through the current state); only the fields and queue are per-instance.
type machineInst struct {
	id     MachineID
	decl   *lang.MachineDecl
	state  *stateSchema
	fields map[string]Value
	queue  []message
	halted bool
}

// Scheduler picks the next machine to dispatch an event; enabled is sorted
// by machine id and never empty.
type Scheduler interface {
	Next(enabled []MachineID) MachineID
}

// randomScheduler is a seeded SplitMix64 scheduler.
type randomScheduler splitmix.Source

func (r *randomScheduler) Next(enabled []MachineID) MachineID {
	// The stream always advances, but a single-element pick needs no modulo
	// (a hardware division): the choice and the PRNG state are identical.
	x := (*splitmix.Source)(r).Next()
	if len(enabled) == 1 {
		return enabled[0]
	}
	return enabled[int(x%uint64(len(enabled)))]
}

// Options configures a run.
type Options struct {
	// Engine selects the evaluator: the bytecode VM (default) or the
	// reference tree-walker. Outcomes are identical; see the "Bytecode
	// execution" section of the package docs.
	Engine Engine
	// Seed seeds the default random scheduler.
	Seed uint64
	// Scheduler overrides the default random scheduler.
	Scheduler Scheduler
	// MaxSteps bounds dispatched events (0 = 100000).
	MaxSteps int
	// RaceDetect runs the happens-before detector over all field accesses.
	RaceDetect bool
	// Coverage, if non-nil, accumulates .psl state-transition coverage:
	// every (machine, state, event) transition or action binding the run
	// dispatches is recorded into it. Monitor dispatches are observations,
	// not program transitions, and are not recorded. The set is safe for
	// concurrent use, so many seeds can share one — DeclaredTransitions
	// gives the denominator for a coverage ratio.
	Coverage *obs.StateEventCoverage
}

// Outcome reports a run.
type Outcome struct {
	// Steps is the number of dispatched events (including entry actions).
	Steps int
	// Quiescent is true when every machine blocked on an empty queue.
	Quiescent bool
	// BoundReached is true when MaxSteps was exhausted first.
	BoundReached bool
	// Races lists happens-before violations found (RaceDetect mode).
	Races []string
	// HotMonitors names the specification monitors that ended the run in a
	// hot state: for a quiescent run this is a liveness violation (the
	// pending obligation can never be discharged); for a bound-limited run
	// it is advisory, since an unfair random schedule may simply have
	// starved the discharging machine.
	HotMonitors []string
	// Err holds an assertion failure, unhandled event, monitor violation,
	// or runtime fault.
	Err error
}

// Interp is the interpreter state: the system configuration (h, M), plus
// one instance of every declared specification monitor. Monitors are
// machine-shaped but live outside the machine list: they are never
// scheduled or addressed; every sent or raised event is dispatched to them
// synchronously through their compiled (per-Program) schemas.
type Interp struct {
	prog     *lang.Program
	schemas  *programSchemas
	heap     []*object
	machines []*machineInst
	monitors []*machineInst // id -1: observers, not schedulable machines
	sched    Scheduler
	det      *vclock.Detector
	cover    *obs.StateEventCoverage
	steps    int
}

// assertionError marks failed asserts.
type assertionError struct{ msg string }

func (e assertionError) Error() string { return "assertion failed: " + e.msg }

// IsAssertion reports whether err is an assertion failure.
func IsAssertion(err error) bool {
	var ae assertionError
	return errors.As(err, &ae)
}

// Run instantiates one instance of the named main machine and executes the
// system until quiescence, an error, or the step bound, under the engine
// opts.Engine selects (the bytecode VM by default).
func Run(prog *lang.Program, main string, opts Options) Outcome {
	if opts.Engine == EngineWalk {
		return runWalk(prog, main, opts)
	}
	return runVM(prog, main, opts)
}

// runWalk is Run on the reference tree-walking evaluator.
func runWalk(prog *lang.Program, main string, opts Options) Outcome {
	in := &Interp{prog: prog, schemas: schemasFor(prog), cover: opts.Coverage}
	if opts.Scheduler != nil {
		in.sched = opts.Scheduler
	} else {
		in.sched = &randomScheduler{State: opts.Seed}
	}
	if opts.RaceDetect {
		in.det = vclock.NewDetector()
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 100000
	}

	md, ok := prog.MachineByName[main]
	if !ok {
		return Outcome{Err: fmt.Errorf("interp: no machine %q", main)}
	}
	var out Outcome
	// Monitors attach before the first machine runs, so they observe every
	// event of the execution, including the main machine's setup sends.
	for _, mon := range prog.Monitors {
		if err := in.attachMonitor(mon); err != nil {
			out.Err = err
			return out
		}
	}
	if _, err := in.create(md, 0); err != nil {
		out.Err = err
		return out
	}

	for in.steps < maxSteps {
		enabled, err := in.enabled()
		if err != nil {
			out.Err = err
			break
		}
		if len(enabled) == 0 {
			out.Quiescent = true
			break
		}
		id := in.sched.Next(enabled)
		if err := in.dispatch(in.machines[id]); err != nil {
			out.Err = err
			break
		}
	}
	out.Steps = in.steps
	if !out.Quiescent && out.Err == nil {
		out.BoundReached = true
	}
	for _, m := range in.monitors {
		if m.state.hot {
			out.HotMonitors = append(out.HotMonitors, m.decl.Name)
		}
	}
	if in.det != nil {
		for _, r := range in.det.Races() {
			out.Races = append(out.Races, r.String())
		}
	}
	return out
}

// create implements machine instantiation: allocate fields (set to Null /
// zero values) and run the start state's entry action. The declaration's
// compiled schema is shared, never rebuilt per instance.
func (in *Interp) create(md *lang.MachineDecl, creator MachineID) (MachineID, error) {
	ms := in.schemas.machines[md]
	m := &machineInst{
		id:     MachineID(len(in.machines)),
		decl:   md,
		state:  ms.start,
		fields: make(map[string]Value, len(md.Fields)),
	}
	for _, f := range md.Fields {
		m.fields[f.Name] = zeroValue(f.Type)
	}
	in.machines = append(in.machines, m)
	if in.det != nil {
		in.det.Fork(int(creator), int(m.id))
	}
	in.steps++
	if m.state.decl.Entry != nil {
		if err := in.runBlock(m, m.state.decl.Entry, nil, nil); err != nil {
			return m.id, err
		}
	}
	return m.id, nil
}

// attachMonitor instantiates one declared monitor: fields zeroed, start
// state entered (running its entry block, which may Goto/raise within the
// monitor). Monitors carry id -1, marking them as observers: they are never
// scheduled, never addressed, and their field accesses are invisible to the
// race detector.
func (in *Interp) attachMonitor(md *lang.MachineDecl) error {
	ms := in.schemas.monitors[md]
	m := &machineInst{
		id:     MachineID(-1),
		decl:   md,
		state:  ms.start,
		fields: make(map[string]Value, len(md.Fields)),
	}
	for _, f := range md.Fields {
		m.fields[f.Name] = zeroValue(f.Type)
	}
	in.monitors = append(in.monitors, m)
	if m.state.decl.Entry != nil {
		return in.runBlock(m, m.state.decl.Entry, nil, nil)
	}
	return nil
}

// observe dispatches one sent or raised program event to every attached
// monitor, synchronously. A monitor handles the event if its current state
// binds it (ignore drops it) and skips it otherwise; assertion failures and
// faults inside monitor actions abort the run like machine failures.
func (in *Interp) observe(event string, payload Value) error {
	for _, m := range in.monitors {
		switch m.state.dispatch[event].kind {
		case dispatchNone, dispatchIgnore:
			continue
		default:
			if err := in.handle(m, event, payload); err != nil {
				return fmt.Errorf("monitor %s: %w", m.decl.Name, err)
			}
		}
	}
	return nil
}

func zeroValue(t lang.Type) Value {
	switch t.Name {
	case "int":
		return Int(0)
	case "bool":
		return Bool(false)
	case "machine":
		return MachineID(-1)
	default:
		return Null{}
	}
}

// enabled lists machines with a dispatchable event (per the transition
// function: the first queued event the machine is willing to handle, with
// ignored events not blocking and deferred events skipped).
func (in *Interp) enabled() ([]MachineID, error) {
	var out []MachineID
	for _, m := range in.machines {
		if m.halted {
			continue
		}
		_, _, ok, err := m.nextDispatch()
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, m.id)
		}
	}
	return out, nil
}

// nextDispatch finds the queue index of the first handleable event via the
// compiled dispatch table (one lookup per queued event); err is non-nil for
// an unhandled event (a runtime error per Section 6.1).
func (m *machineInst) nextDispatch() (idx int, msg message, ok bool, err error) {
	i := 0
	for i < len(m.queue) {
		msg := m.queue[i]
		switch m.state.dispatch[msg.event].kind {
		case dispatchIgnore:
			m.removeQueued(i)
		case dispatchDefer:
			i++
		case dispatchDo, dispatchGoto:
			return i, msg, true, nil
		default:
			return 0, message{}, false, fmt.Errorf(
				"interp: machine %s(%d): event %q cannot be handled in state %q",
				m.decl.Name, m.id, msg.event, m.state.decl.Name)
		}
	}
	return 0, message{}, false, nil
}

// removeQueued deletes the i-th queued message, zeroing the vacated tail
// slot so its payload is not retained beyond len.
func (m *machineInst) removeQueued(i int) {
	last := len(m.queue) - 1
	copy(m.queue[i:], m.queue[i+1:])
	m.queue[last] = message{}
	m.queue = m.queue[:last]
}

// dispatch handles one event on machine m (rule RECEIVE).
func (in *Interp) dispatch(m *machineInst) error {
	idx, msg, ok, err := m.nextDispatch()
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	m.removeQueued(idx)
	if in.det != nil {
		in.det.Receive(int(m.id), msg.clock)
	}
	in.steps++
	return in.handle(m, msg.event, msg.payload)
}

// handle runs a transition or bound action for an event.
func (in *Interp) handle(m *machineInst, event string, payload Value) error {
	switch e := m.state.dispatch[event]; e.kind {
	case dispatchGoto:
		in.coverHit(m, event)
		return in.gotoState(m, e.target, payload)
	case dispatchDo:
		in.coverHit(m, event)
		meth := e.method
		locals := make(map[string]Value)
		if len(meth.Params) == 1 {
			if payload == nil {
				payload = zeroValue(meth.Params[0].Type)
			}
			locals[meth.Params[0].Name] = payload
		}
		return in.runBlock(m, meth.Body, locals, nil)
	default:
		return fmt.Errorf("interp: machine %s(%d): event %q cannot be handled in state %q",
			m.decl.Name, m.id, event, m.state.decl.Name)
	}
}

func (in *Interp) gotoState(m *machineInst, target *stateSchema, payload Value) error {
	m.state = target
	if m.id >= 0 {
		in.steps++ // monitor transitions are observations, not program steps
	}
	if m.state.decl.Entry != nil {
		return in.runBlock(m, m.state.decl.Entry, nil, nil)
	}
	return nil
}

// raised carries a raised event out of a statement block.
type raised struct {
	event   string
	payload Value
}

// runBlock executes a method body or entry block on machine m, then
// processes any raised event immediately (bypassing the queue).
func (in *Interp) runBlock(m *machineInst, body []lang.Stmt, locals map[string]Value, _ interface{}) error {
	if locals == nil {
		locals = make(map[string]Value)
	}
	env := &frame{machine: m, locals: locals}
	_, r, err := in.execStmts(env, body)
	if err != nil {
		return err
	}
	if r != nil {
		if m.id >= 0 {
			// Monitors observe raised program events like sends; a monitor's
			// own raises stay internal to its dispatch.
			if err := in.observe(r.event, r.payload); err != nil {
				return err
			}
		}
		switch e := m.state.dispatch[r.event]; e.kind {
		case dispatchIgnore:
			return nil
		case dispatchDefer:
			m.queue = append(m.queue, message{event: r.event, payload: r.payload})
			return nil
		case dispatchGoto:
			// This goto bypasses handle, so it records its own coverage hit.
			in.coverHit(m, r.event)
			return in.gotoState(m, e.target, r.payload)
		default:
			return in.handle(m, r.event, r.payload)
		}
	}
	return nil
}

// coverHit records one dispatched transition into the attached coverage
// set. Monitors (id -1) are observers, not program machines, and are
// skipped.
func (in *Interp) coverHit(m *machineInst, event string) {
	if in.cover == nil || m.id < 0 {
		return
	}
	in.cover.Hit(m.decl.Name, m.state.decl.Name, event)
}

// DeclaredTransitions counts the (state, event) transition and action
// bindings declared across prog's machines — the denominator for a
// state-transition coverage ratio over Options.Coverage. Monitor
// declarations are excluded, matching what coverage records.
func DeclaredTransitions(prog *lang.Program) int {
	n := 0
	for _, md := range prog.Machines {
		for _, sd := range md.States {
			n += len(sd.OnDo) + len(sd.OnGoto)
		}
	}
	return n
}

// frame is one activation record: the machine (for this/fields) plus local
// variables including parameters.
type frame struct {
	machine *machineInst
	// thisRef is non-nil when executing a class method on a heap object.
	thisObj *object
	locals  map[string]Value
	retVal  Value
}
