package psharp

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/psharp-go/psharp/obs"
)

// Machine is implemented by user machine types. A machine is declared in the
// static form: its type implements StaticMachine, whose ConfigureType
// declares the states, transitions and action bindings once per type, and
// its state lives in the fields of the value the registered factory returns.
//
// Configure is what is left of the closure form, kept only until the
// repository's benchmark stops declaring machines with MachineFunc: a
// closure-form machine declares its schema per instance, binding OnEventDo
// actions that close over variables the factory allocated, so its schema is
// rebuilt and revalidated for every create, and the tester cannot see its
// state. Monitors must be static.
//
// Machines correspond to the paper's Machine subclasses; states to its State
// nested classes; OnEventGoto entries to the "State Transitions" table and
// OnEventDoM entries to the "Action Bindings" table of Figure 1.
type Machine interface {
	Configure(s *Schema)
}

// StaticMachine is the declaration form, matching the paper's design where a
// machine's transition and action-binding tables are properties of the
// machine class, compiled once. ConfigureType declares the schema for the
// type on a probe instance produced by the registered factory. Bound actions
// use the static signatures (MachineAction, MachineExitAction), which
// receive the machine instance as a parameter instead of closing over it.
//
// ConfigureType must be a function of the probe's value: it may read fields
// the factory sets identically on every instance (registration parameters
// such as a buggy-variant flag), but must not capture the receiver in action
// bodies — the receiver it runs on is a discarded probe, not the machine the
// actions will later run against — and must not read anything the probe
// does not hold (a global, the time). The schema is compiled once per
// process for each (registered name, probe type, probe value): a later
// Register of the same name, on any Runtime, whose probe is equal by
// reflect.DeepEqual to one already compiled reuses that schema without
// calling ConfigureType. A probe that holds a non-nil func or chan never
// compares equal; its type is compiled once per Runtime.
//
// Static machines embed StaticBase to satisfy the Machine interface.
type StaticMachine interface {
	Machine
	ConfigureType(s *Schema)
}

// StaticBase is embedded by static-form machine types to satisfy the
// Machine interface. Its Configure panics: a static machine's schema is
// declared once per type via ConfigureType, never per instance.
type StaticBase struct{}

// Configure implements Machine by rejecting per-instance configuration.
func (StaticBase) Configure(*Schema) {
	panic("psharp: static machine configured per instance; its schema is declared by ConfigureType")
}

// MachineFunc adapts a configuration function to the Machine interface: the
// closure form, for machines whose state lives in closed-over variables and
// whose handlers are bound with OnEventDo. It is kept for the repository's
// benchmark, its last user; declare new machines as StaticMachine types.
type MachineFunc func(*Schema)

// Configure implements Machine.
func (f MachineFunc) Configure(s *Schema) { f(s) }

// Action is the handler signature of the closure form, which OnEventDo
// adapts to a MachineAction; the rules of MachineAction apply.
type Action func(ctx *Context, ev Event)

// MachineAction is the signature of entry actions and event handlers: the
// machine instance arrives as an explicit parameter (assert it to the
// concrete type) instead of being closed over, so the schema the action is
// bound in can be compiled once per type and shared across instances and
// goroutines. The entry action receives the event whose transition entered
// the state; the handler, the event it handles. Actions must be sequential:
// they must not spawn goroutines or block on anything other than the Context
// operations.
type MachineAction func(m Machine, ctx *Context, ev Event)

// MachineExitAction is the signature of exit actions, run when a state is
// exited via a transition; see MachineAction.
type MachineExitAction func(m Machine, ctx *Context)

// dispatchKind says how a state reacts to an event type.
type dispatchKind uint8

const (
	dispatchNone dispatchKind = iota
	dispatchAction
	dispatchGoto
	dispatchDefer
	dispatchIgnore
)

// dispatchEntry is a state's reaction to one event type. A dispatched event
// is handed a pointer to it (stateSpec.find): the entry lives in the
// compiled schema, which nothing writes after compile, so the pointer may
// leave a mailbox lock and be shared by every instance of the schema.
type dispatchEntry struct {
	kind dispatchKind
	// slot numbers an action or goto binding in its schema's transitions,
	// so that recording its coverage is an array access (see coverage).
	slot   int32
	fn     MachineAction // bound action (dispatchAction)
	target *stateSpec    // goto target (dispatchGoto), resolved by compile
}

// handlerBinding is one (event type -> dispatch) binding of a state. States
// hold a small slice of bindings rather than a map: machines bind a handful
// of event types per state, so a linear scan over inline pairs beats a map
// on lookup and costs a fraction of the allocations to build — which
// matters because a closure-form schema is rebuilt for every machine of
// every exploration iteration. The event type is proto's type word (see
// find); to names a goto target until compile resolves it into the entry.
type handlerBinding struct {
	proto Event
	to    string
	entry dispatchEntry
}

// stateTemp is a state's liveness temperature annotation. Only monitor
// states carry one: hot marks a pending liveness obligation ("something must
// eventually happen"), cold (or no annotation) marks it discharged.
type stateTemp int

const (
	tempNone stateTemp = iota
	tempHot
	tempCold
)

// stateSpec is the compiled form of one declared state. A state holds at
// most one entry and one exit action.
type stateSpec struct {
	name     string
	temp     stateTemp
	entry    MachineAction
	exit     MachineExitAction
	handlers []handlerBinding
}

// isHot reports whether the state carries the hot liveness annotation.
func (st *stateSpec) isHot() bool { return st.temp == tempHot }

// find returns the reaction the state binds to ev's dynamic type, nil if it
// binds none. Two event values have the same dynamic type exactly when their
// interfaces hold the same type word, so a binding matches by one pointer
// compare, without asking reflect; types that print alike (msg.Ping of two
// packages) have different words, and so do the pointer and value forms of
// one struct type, on purpose: use one form consistently.
func (st *stateSpec) find(ev Event) *dispatchEntry {
	tab := (*ifaceWords)(unsafe.Pointer(&ev)).tab
	for i := range st.handlers {
		h := &st.handlers[i]
		if (*ifaceWords)(unsafe.Pointer(&h.proto)).tab == tab {
			return &h.entry
		}
	}
	return nil
}

// Schema collects a machine's state-machine structure. It is passed to
// Machine.Configure and then validated and frozen.
type Schema struct {
	initial string
	states  map[string]*stateSpec
	order   []string
	errs    []error
}

func newSchema() *Schema {
	return &Schema{states: make(map[string]*stateSpec)}
}

// Start declares the initial state of the machine and returns its builder.
// Exactly one state must be declared with Start.
func (s *Schema) Start(name string) *StateBuilder {
	if s.initial != "" {
		s.errs = append(s.errs, fmt.Errorf("duplicate start state: %q and %q", s.initial, name))
	}
	s.initial = name
	return s.State(name)
}

// State declares (or returns the builder for) a state with the given name.
func (s *Schema) State(name string) *StateBuilder {
	if name == "" {
		s.errs = append(s.errs, fmt.Errorf("state name must be non-empty"))
	}
	st, ok := s.states[name]
	if !ok {
		st = &stateSpec{name: name}
		s.states[name] = st
		s.order = append(s.order, name)
	}
	return &StateBuilder{schema: s, state: st}
}

// StateBuilder declares the behaviour of a single state.
type StateBuilder struct {
	schema *Schema
	state  *stateSpec
}

// Name returns the state's name.
func (b *StateBuilder) Name() string { return b.state.name }

// Hot marks the state as a liveness obligation: while a monitor sits in a
// hot state, something is still required to eventually happen (the paper's
// "eventually responds" class of specifications). A testing runtime checks
// every registered monitor that declares a hot state: an execution that
// returns to a global state it was in, on a cycle that keeps the monitor hot,
// schedules every enabled machine and injects no fault — a fair lasso, which
// can repeat forever — or that quiesces with the monitor hot fails the
// iteration with BugLiveness. Hot and cold annotations are only meaningful
// on monitor states; Register rejects machine schemas that carry them.
func (b *StateBuilder) Hot() *StateBuilder {
	if b.state.temp != tempNone {
		b.schema.err("state %q: duplicate hot/cold annotation", b.state.name)
	}
	b.state.temp = tempHot
	return b
}

// Cold marks the state as a discharged liveness obligation. It is the
// default for unannotated states; declaring it explicitly documents the
// specification's intent (see Hot).
func (b *StateBuilder) Cold() *StateBuilder {
	if b.state.temp != tempNone {
		b.schema.err("state %q: duplicate hot/cold annotation", b.state.name)
	}
	b.state.temp = tempCold
	return b
}

// OnEntryM registers the state's entry action; see MachineAction. The
// action receives the event whose transition entered the state (the payload
// in the paper's terms); for the initial state it receives the creation
// payload event, which may be nil.
func (b *StateBuilder) OnEntryM(fn MachineAction) *StateBuilder {
	switch {
	case fn == nil:
		b.schema.err("state %q: nil OnEntryM action", b.state.name)
	case b.state.entry != nil:
		b.schema.err("state %q: duplicate OnEntryM", b.state.name)
	default:
		b.state.entry = fn
	}
	return b
}

// OnExitM registers the state's exit action, run when leaving via a goto;
// see MachineExitAction.
func (b *StateBuilder) OnExitM(fn MachineExitAction) *StateBuilder {
	switch {
	case fn == nil:
		b.schema.err("state %q: nil OnExitM action", b.state.name)
	case b.state.exit != nil:
		b.schema.err("state %q: duplicate OnExitM", b.state.name)
	default:
		b.state.exit = fn
	}
	return b
}

// OnEventGoto registers a transition: when an event with proto's dynamic
// type is dequeued in this state, the machine exits the state and enters
// target, passing the event to target's entry action.
func (b *StateBuilder) OnEventGoto(proto Event, target string) *StateBuilder {
	b.bind(proto, target, dispatchEntry{kind: dispatchGoto})
	return b
}

// OnEventDoM registers an action binding: the event is handled by fn and the
// machine stays in the current state; see MachineAction.
func (b *StateBuilder) OnEventDoM(proto Event, fn MachineAction) *StateBuilder {
	b.bind(proto, "", dispatchEntry{kind: dispatchAction, fn: fn})
	return b
}

// OnEventDo is OnEventDoM for a closure-form handler, which it adapts to the
// one action signature when the binding is made.
func (b *StateBuilder) OnEventDo(proto Event, fn Action) *StateBuilder {
	if fn == nil {
		return b.OnEventDoM(proto, nil)
	}
	return b.OnEventDoM(proto, func(_ Machine, ctx *Context, ev Event) { fn(ctx, ev) })
}

// Defer keeps events of proto's type in the queue while in this state; they
// become available again after a transition to a state that handles them.
func (b *StateBuilder) Defer(proto Event) *StateBuilder {
	b.bind(proto, "", dispatchEntry{kind: dispatchDefer})
	return b
}

// Ignore silently drops events of proto's type while in this state.
func (b *StateBuilder) Ignore(proto Event) *StateBuilder {
	b.bind(proto, "", dispatchEntry{kind: dispatchIgnore})
	return b
}

func (b *StateBuilder) bind(proto Event, to string, e dispatchEntry) {
	if proto == nil {
		b.schema.err("state %q: nil event prototype", b.state.name)
		return
	}
	if e.kind == dispatchAction && e.fn == nil {
		b.schema.err("state %q: nil action bound to event %s", b.state.name, eventName(proto))
		return
	}
	// The paper (Section 6.1) requires the runtime to report an error if an
	// event can be handled in more than one way in the same state; we reject
	// the ambiguity statically when the machine is configured.
	if b.state.find(proto) != nil {
		b.schema.err("state %q: event %s bound more than once", b.state.name, eventName(proto))
		return
	}
	b.state.handlers = append(b.state.handlers, handlerBinding{proto: proto, to: to, entry: e})
}

func (s *Schema) err(format string, args ...any) {
	s.errs = append(s.errs, fmt.Errorf(format, args...))
}

// validate checks the frozen schema of the named machine or monitor (kind)
// and returns a descriptive error listing every problem found.
func (s *Schema) validate(kind, name string) error {
	errs := append([]error(nil), s.errs...)
	if s.initial == "" {
		errs = append(errs, fmt.Errorf("no start state declared"))
	}
	for _, sn := range s.order { // declaration order: deterministic, no copy
		st := s.states[sn]
		for i := range st.handlers {
			if h := &st.handlers[i]; h.entry.kind == dispatchGoto {
				if _, ok := s.states[h.to]; !ok {
					errs = append(errs, fmt.Errorf("state %q: goto target %q is not a declared state", sn, h.to))
				}
			}
		}
	}
	if len(errs) == 0 {
		return nil
	}
	msg := fmt.Sprintf("%s %q: invalid schema:", kind, name)
	for _, e := range errs {
		msg += "\n\t" + e.Error()
	}
	return fmt.Errorf("%s", msg)
}

// compiledSchema is the frozen, validated form of a machine Schema: the
// paper's per-class transition and action-binding tables. It is immutable
// after compile, and therefore safe to share across machine instances,
// Runtimes and goroutines — the process keeps one per static declaration
// (typeSchemas), and a Runtime binds each registered name to one.
type compiledSchema struct {
	initial *stateSpec
	states  map[string]*stateSpec
	// hot says some state is hot: the monitor states a liveness property,
	// and a testing runtime it is registered on checks it (see controller.lasso).
	hot bool
	// transitions is the coverage unit of each action and goto binding, by
	// dispatchEntry.slot.
	transitions []obs.Transition
}

// compile validates the schema of the named machine or monitor and freezes
// it. The builder hands its state table to the compiled form and must not be
// used afterwards. A machine's states must not carry hot/cold liveness
// annotations, which belong to monitors; a monitor's must not Defer, since a
// monitor observes events instead of queueing them. Action and goto bindings
// are numbered in declaration order.
func (s *Schema) compile(name string, monitor bool) (*compiledSchema, error) {
	kind := "machine"
	if monitor {
		kind = "monitor"
	}
	for _, sn := range s.order {
		st := s.states[sn]
		if !monitor && st.temp != tempNone {
			s.err("state %q: hot/cold annotations are only allowed on monitor states", sn)
		}
		for i := range st.handlers {
			if monitor && st.handlers[i].entry.kind == dispatchDefer {
				s.err("state %q: monitors cannot Defer events (they have no queue)", sn)
			}
		}
	}
	if err := s.validate(kind, name); err != nil {
		return nil, err
	}
	cs := &compiledSchema{initial: s.states[s.initial], states: s.states}
	for _, sn := range s.order {
		st := s.states[sn]
		cs.hot = cs.hot || st.isHot()
		for i := range st.handlers {
			h := &st.handlers[i]
			if e := &h.entry; e.kind == dispatchAction || e.kind == dispatchGoto {
				e.slot = int32(len(cs.transitions))
				if e.kind == dispatchGoto {
					e.target = s.states[h.to]
				}
				cs.transitions = append(cs.transitions, obs.Transition{Machine: name, State: sn, Event: eventName(h.proto)})
			}
		}
	}
	return cs, nil
}

// typeKey names a static declaration up to its probe's value: machine or
// monitor (they compile under different rules), the registered name, and the
// probe's dynamic type.
type typeKey struct {
	monitor bool
	name    string
	typ     reflect.Type
}

// typeSchema is one compiled static schema with a private deep copy of the
// probe it was compiled on, which nothing else references or changes.
type typeSchema struct {
	probe  Machine
	schema *compiledSchema
}

// maxProbeValues bounds the probe values the table keeps per typeKey. A
// factory whose probes differ from one Runtime to the next (a counter, a
// per-run configuration) compiles once per Runtime past it, instead of
// growing the table for the life of the process.
const maxProbeValues = 8

// typeSchemas is the process-wide table of compiled static schemas. A
// schema is a function of the declaration and the probe's value, so the
// buggy and the correct variant of a protocol, whose probes differ in one
// flag under one name, are two entries.
var typeSchemas struct {
	mu    sync.Mutex
	byKey map[typeKey][]typeSchema
	// compiles counts the compiles typeSchemaOf could not avoid; the
	// compile-once tests observe it.
	compiles atomic.Int64
}

// typeSchemaOf returns the schema of the static declaration whose probe
// registers under name, and whether it took a compile to get it. A probe
// equal to one compiled before under the same name and type shares that
// one's schema; a failed compile is returned and never kept.
func typeSchemaOf(name string, probe StaticMachine, monitor bool) (cs *compiledSchema, compiled bool, err error) {
	key := typeKey{monitor: monitor, name: name, typ: reflect.TypeOf(probe)}
	typeSchemas.mu.Lock()
	cs = lookupTypeSchemaLocked(key, probe)
	typeSchemas.mu.Unlock()
	if cs != nil {
		return cs, false, nil
	}
	keep := keepable(probe) // before ConfigureType runs on the probe
	s := newSchema()
	probe.ConfigureType(s)
	if cs, err = s.compile(name, monitor); err != nil {
		return nil, false, err
	}
	typeSchemas.compiles.Add(1)
	if keep == nil {
		return cs, true, nil
	}
	typeSchemas.mu.Lock()
	defer typeSchemas.mu.Unlock()
	if prior := lookupTypeSchemaLocked(key, keep); prior != nil {
		return prior, true, nil // compiled meanwhile by another goroutine
	}
	if entries := typeSchemas.byKey[key]; len(entries) < maxProbeValues {
		if typeSchemas.byKey == nil {
			typeSchemas.byKey = make(map[typeKey][]typeSchema)
		}
		typeSchemas.byKey[key] = append(entries, typeSchema{probe: keep, schema: cs})
	}
	return cs, true, nil
}

// keepable returns a deep copy of probe to key the table with, or nil if no
// copy stands for it: one that DeepEqual does not find equal to the probe
// (a non-nil func or chan, which the copy leaves nil; a NaN) never matches.
func keepable(probe Machine) Machine {
	var w stateWalk
	var im image
	w.begin(&im)
	root := w.root(machineIface, *(*ifaceWords)(unsafe.Pointer(&probe)))
	if w.refused != nil {
		return nil
	}
	var keep Machine
	var rel relocation
	rel.restore(&im, nil, nil)
	rel.put(unsafe.Pointer(&keep), root)
	if !reflect.DeepEqual(keep, probe) {
		return nil
	}
	return keep
}

// lookupTypeSchemaLocked returns the kept schema whose probe equals probe,
// or nil. Caller holds typeSchemas.mu.
func lookupTypeSchemaLocked(key typeKey, probe Machine) *compiledSchema {
	for _, e := range typeSchemas.byKey[key] {
		if reflect.DeepEqual(e.probe, probe) {
			return e.schema
		}
	}
	return nil
}
