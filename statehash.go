package psharp

// Global-state hashing and step observation: the controller-side hooks
// behind the sct package's DPOR strategy and hashed state cache, and the
// liveness verdict.
//
// At every scheduling decision the testing controller can (a) report the
// effect footprint of the step it just executed to a StepObserver — the
// strategy-side half of dynamic partial-order reduction — and (b) hash the
// global program state (machine FSM states, queue contents, machine logic
// fields, monitor states), to look it up among the iteration's earlier
// points while a monitor is hot (a repeat closes a lasso, see
// controller.lasso) and to ask a StateCache whether that state was already
// covered, cutting the iteration short when it was — except on the prefix
// the strategy promises to repeat of the iteration before, where the answer
// is known (see StateCache). The hash stands for the state unchecked: two
// states with one 64-bit hash are one to the cache and to the lasso alike.
// Both hooks are off unless the strategy implements StepObserver,
// TestConfig.StateCache is set or a registered monitor declares a hot
// state, and the step bookkeeping is a handful of word writes — the
// allocation-free hot path is unchanged when they are off. What is hashed of
// user values — logic fields, event payloads — is decided by their types'
// state plans (stateplan.go), the walker checkpoints copy with; hashing
// allocates nothing per steady-state step for state made of pointers,
// structs, slices and maps of plain keys and elements, and does allocate for
// an event or interface value that is not a pointer (a box per hash) and for
// a map whose keys or elements hold pointers (two per entry).
// One mixing primitive, stateplan.go's fold, makes every hash here. Each
// machine carries its own component (machineInstance.comp), and which ones
// to rehash is the footprint of the step (see stateHasher).

import (
	"reflect"
	"unsafe"

	"github.com/psharp-go/psharp/internal/splitmix"
)

// StepOp is the effect footprint of one executed scheduling step: which
// machine ran, which machine (if any) it sent to, which machine (if any)
// it created, and whether a specification monitor observed the step. Two
// steps are dependent — reordering them can change program behavior — iff
// their footprints overlap: same machine, one touches the other's machine,
// both target the same mailbox, or both were observed by monitors (monitor
// verdicts are order-sensitive global state).
type StepOp struct {
	Machine MachineID
	Target  MachineID
	Created MachineID
	// Observed reports that at least one registered monitor observed a
	// send or raise performed during the step.
	Observed bool
}

// StepObserver is implemented by scheduling strategies that need the
// effect footprint of each executed step (sct.DPOR). The controller calls
// ObserveStep exactly once per scheduling decision, after the chosen
// machine's step has run to its next yield point.
type StepObserver interface {
	ObserveStep(op StepOp)
}

// StateCache is consulted by the controller at the scheduling decisions of
// an iteration when TestConfig.StateCache is set. Visit receives the hash
// of the current global state, the hash of the decision prefix that led to
// it, and the prefix depth (decisions made so far); returning true prunes
// the iteration — the controller stops scheduling and reports the
// iteration with IterationResult.Pruned set.
//
// The cache is not consulted on the prefix the strategy promises to repeat
// (PrefixResumer) of the previous iteration of the same TestHarness: the
// points inside it at which that iteration went on to decide are states the
// cache was shown then, under these very prefixes, and answered false to.
// The controller neither hashes nor calls Visit there
// (IterationResult.ReplayedPoints counts them). This relies on what replay
// relies on: the program is deterministic in its decisions, so an equal
// decision prefix reaches an equal state. (Where the harness holds a
// checkpoint inside that prefix the points before it are not even executed;
// they count as replayed all the same.) A cache must therefore answer a
// repeated Visit(state, prefix, depth) as it answered the first — any
// ownership rule does under a depth-first strategy, which finishes a
// prefix's subtree before any other prefix can take the state at a smaller
// depth — and a cache shared by several harnesses cannot prune one of them
// inside its own repeated prefix. A strategy that is not a PrefixResumer,
// one-shot RunTest calls, the first Run after the configuration changed, and
// caches whose dynamic type is not comparable (so "the same cache as last
// time" cannot be told) are consulted at every point.
//
// The hash covers machine and monitor logic values and queued events through
// their types' state plans (stateplan.go): to any depth and length, with what
// is aliased inside one machine's state told apart from what is merely
// equal. State it cannot cover — a non-nil func, chan or unsafe.Pointer, and
// a logic that is itself a func (a closure-form MachineFunc machine), whose
// state is in what its actions captured — ends the iteration with a *StateError in IterationResult.Err
// rather than being hashed to a constant.
//
// Soundness is the caller's concern: pruning on a revisited state is only
// exhaustive-exploration-preserving under a depth-first strategy (sct.DFS,
// sct.DPOR), whose lexicographic enumeration finishes the owning prefix's
// subtree before any other prefix reaches the state. The sct engine
// refuses to attach a cache to other strategies.
type StateCache interface {
	Visit(state, prefix uint64, depth int) (prune bool)
}

// hashSeed starts every hash the package folds: the decision prefix, a
// chain position, a type identity and each state plan walk.
const hashSeed uint64 = 0xcbf29ce484222325

// stateHasher computes the incremental global-state hash: the XOR of the
// machines' components (FSM state, controller status, queue contents,
// mid-handler position, logic fields; machineInstance.comp), of which a
// point rehashes only those marked stale since the last — a created machine,
// and after each step the machine that stepped and the one it sent to, the
// footprint DPOR is given anyway. Monitors are few and shallow and are
// rehashed fresh at every point. A component is one walk of the state
// plans: what is aliased inside one machine — two fields, a field and a
// queued event — is part of its hash; memory shared between machines is hashed once per
// machine that reaches it, the price of rehashing them separately.
type stateHasher struct {
	// agg is the XOR of the components hashed so far; dirty lists the
	// machines marked stale since.
	agg   uint64
	dirty []*machineInstance
	// prefix is the rolling hash of the decision prefix (schedule, bool,
	// int choices) of the current iteration.
	prefix uint64
	// walk is the plan interpreter's state, reused by every component; err is
	// the first value it refused to hash (see StateError), for the pass that
	// asked for the hash to end the iteration with.
	walk stateWalk
	err  *StateError
	// planIDs remembers the plan id of the event types sends were logged
	// with, by type word (see planID).
	planIDs [16]struct {
		typ unsafe.Pointer
		id  uint64
	}

	// Points at trace positions below replayTo were passed by the previous
	// iteration and repeated by this one (rewind); replayed counts them.
	replayTo int
	replayed int

	// lassos is the lasso table of an iteration that checks a liveness
	// property: each state hashed while a monitor was hot, at the trace
	// position a cycle back to it would start from (see controller.lasso).
	// lassoLog holds its writes in order, each with the entry it replaced
	// (-1: none). Both outlive reset: rewind keeps what the prefix an
	// iteration repeats wrote (keepLassos).
	lassos   map[uint64]int
	lassoLog []lassoWrite
}

// lassoWrite is a write to the lasso table at trace position at.
type lassoWrite struct {
	state    uint64
	at, prev int
}

// setLasso makes state's entry in the lasso table j, replacing prev.
func (h *stateHasher) setLasso(state uint64, j, prev int) {
	h.lassos[state] = j
	h.lassoLog = append(h.lassoLog, lassoWrite{state, j, prev})
}

// keepLassos undoes the writes to the lasso table made at trace position n
// or later, newest first, leaving the table as the points before n left it.
func (h *stateHasher) keepLassos(n int) {
	k := len(h.lassoLog)
	for ; k > 0 && h.lassoLog[k-1].at >= n; k-- {
		if w := h.lassoLog[k-1]; w.prev < 0 {
			delete(h.lassos, w.state)
		} else {
			h.lassos[w.state] = w.prev
		}
	}
	h.lassoLog = h.lassoLog[:k]
}

// reset prepares the hasher for a fresh iteration, which replays nothing
// until rewind says otherwise, and drops the previous iteration's machines,
// recycled since. The new ones are marked stale as they are created or
// restored, so the first point hashed hashes each of them once.
// The lasso table is left to rewind (keepLassos).
func (h *stateHasher) reset() {
	h.agg = 0
	clear(h.dirty)
	h.dirty = h.dirty[:0]
	h.prefix = hashSeed
	h.replayTo, h.replayed = 0, 0
	h.err = nil
}

// stale records that m's component must be rehashed at the next point.
func (h *stateHasher) stale(m *machineInstance) {
	if !m.stale {
		m.stale = true
		h.dirty = append(h.dirty, m)
	}
}

// hashMachine computes one machine's component: identity, FSM state,
// scheduler status, mid-handler position, queue contents (sender, event
// type, payload), and the logic value's fields, the user values by their
// state plans in one walk. Execution is serialized, so the queue is read
// unlocked.
func (h *stateHasher) hashMachine(m *machineInstance) uint64 {
	w := &h.walk
	w.reset()
	w.h = fold(foldString(fold(w.h, m.id.Seq), m.state()), uint64(m.status))
	if m.handling {
		// Mid-handler: the position is the chain's event plus everything it
		// did since.
		h.foldChain(m)
		w.h = fold(w.h, m.hprog)
		w.hashEvent(&m.ev)
	}
	q := m.queued()
	w.h = fold(w.h, uint64(len(q)))
	for i := range q {
		w.h = fold(w.h, q[i].sender.Seq)
		w.hashEvent(&q[i].event)
	}
	if m.logic != nil {
		w.hashLogic(&m.logic)
	}
	if m.st == nil {
		w.hashEvent(&m.birth) // not booted yet: what it will start from is state too
	}
	if w.refused != nil && h.err == nil {
		h.err = w.refusedIn("machine " + m.id.Type)
	}
	return splitmix.Mix(w.h)
}

// foldChain folds into m.hprog the ops m's chain has logged since the last
// fold, yield points aside: two continuations that sent, created or drew
// differently are different program positions. Folded ops no snapshot
// records (m.chain is nil) are dropped. It runs when the machine is hashed
// and at the end of each of its steps, for the log to hold no more than a
// step's ops also where no hash is taken: on the prefix an attempt replays.
func (h *stateHasher) foldChain(m *machineInstance) {
	for _, op := range m.ops[m.folded:] {
		if op.kind == opYield {
			continue
		}
		m.hprog = fold(fold(m.hprog, uint64(op.kind)), op.v)
		if op.kind == opSend {
			m.hprog = fold(m.hprog, h.planID(op.typ))
		}
	}
	if m.chain == nil {
		m.ops = m.ops[:0]
	}
	m.folded = len(m.ops)
}

// planID is planOf(t).id, which is a load from a sync.Map, looked up first
// in a small direct-mapped cache keyed by t's type word: a program sends
// events of a handful of types.
func (h *stateHasher) planID(t reflect.Type) uint64 {
	w := (*ifaceWords)(unsafe.Pointer(&t)).data
	e := &h.planIDs[(uintptr(w)>>4)%uintptr(len(h.planIDs))]
	if e.typ != w {
		e.typ, e.id = w, planOf(t).id
	}
	return e.id
}

// hashMonitor folds one monitor's full state — name, FSM state (which says
// whether it is hot), logic fields — into a component. How long it has been
// hot is not state: the same obligation pending at two points is the same
// state (see lasso).
func (h *stateHasher) hashMonitor(mon *machineInstance) uint64 {
	w := &h.walk
	w.reset()
	w.h = foldString(foldString(w.h, mon.id.Type), mon.state())
	if mon.logic != nil {
		w.hashLogic(&mon.logic)
	}
	if w.refused != nil && h.err == nil {
		h.err = w.refusedIn(mon.String())
	}
	return splitmix.Mix(w.h)
}
