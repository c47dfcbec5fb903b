package psharp

import (
	"reflect"

	"github.com/psharp-go/psharp/obs"
)

// Global-state hashing and step observation: the controller-side hooks
// behind the sct package's DPOR strategy and hashed state cache.
//
// At every scheduling decision the testing controller can (a) report the
// effect footprint of the step it just executed to a StepObserver — the
// strategy-side half of dynamic partial-order reduction — and (b) hash the
// global program state (machine FSM states, queue contents, machine logic
// fields, monitor states and temperatures) and ask a StateCache whether
// that state was already covered, cutting the iteration short when it was
// — except on the decision prefix an iteration replays from the one before
// it, where the answer is known (see StateCache).
// Both hooks are off unless the strategy implements StepObserver or
// TestConfig.StateCache is set, and the step bookkeeping is a handful of
// word writes — the allocation-free hot path is unchanged when they are
// off. What is hashed of user values — logic fields, event payloads — is
// decided by their types' state plans (stateplan.go), the walker checkpoints
// copy with; hashing allocates nothing per steady-state step for state made
// of pointers, structs, slices and maps of plain keys and elements, and does
// allocate for an event or interface value that is not a pointer (a box per
// hash) and for a map whose keys or elements hold pointers (two per entry).

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
// The cache is not consulted on a replayed prefix: while an iteration makes
// the decisions the previous iteration of the same TestHarness made, it
// passes through states the cache was shown then, under these very
// prefixes, and answered false to. The controller neither hashes nor calls
// Visit at those points (IterationResult.ReplayedPoints counts them); the
// first call of an iteration is at the first point whose decision prefix
// the previous iteration did not reach. This relies on what replay relies
// on: the program is deterministic in its decisions, so an equal decision
// prefix reaches an equal state. (Where the harness holds a checkpoint
// inside that prefix — see PrefixResumer — the points before it are not even
// executed; they count as replayed all the same.) A cache must therefore
// answer a repeated Visit(state, prefix, depth) as it answered the first —
// any ownership rule does under a depth-first strategy, which finishes a
// prefix's subtree before any other prefix can take the state at a smaller
// depth — and a cache shared by several harnesses cannot prune one of them
// inside its own replay. One-shot RunTest calls, and caches whose dynamic
// type is not comparable (so "the same cache as last time" cannot be told),
// are consulted at every point.
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

// FNV-1a, the same mixing primitive the sct package uses for schedule
// fingerprints.
const (
	fnvOffset64 uint64 = 0xcbf29ce484222325
	fnvPrime64  uint64 = 0x100000001b3
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// mix64 is a SplitMix64-style finalizer used where a component hash is
// built from one word.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// stateHasher computes the incremental global-state hash. Per-machine
// components (FSM state, controller status, queue contents, mid-handler
// position, logic fields) are cached and XORed into an aggregate; each step
// dirties only the machines it touched — the machine that ran, its send
// target, machines it created — so a scheduling point rehashes O(step
// footprint) machines, not O(machines). Monitors are few and shallow and are
// rehashed fresh at every point (their temperatures change every step under
// liveness checking). A component is one walk of the state plans: what is
// aliased inside one machine — two fields, a field and a queued event — is
// part of its hash; memory shared between machines is hashed once per
// machine that reaches it, the price of rehashing them separately.
type stateHasher struct {
	// comps[i] is the cached component of machine Seq i+1; agg is the XOR
	// of all components.
	comps []uint64
	agg   uint64
	// dirty lists component indexes to rehash at the next scheduling
	// point; marked dedups it.
	dirty  []int
	marked []bool
	// prefix is the rolling hash of the decision prefix (schedule, bool,
	// int choices) of the current iteration.
	prefix uint64
	// walk is the plan interpreter's state, reused by every component; err is
	// the first value it refused to hash (see StateError), for the pass that
	// asked for the hash to end the iteration with.
	walk stateWalk
	err  *StateError

	// seen is the replay memo: seen[k] is the decision-prefix hash the
	// harness's previous iteration had at scheduling point k, for every
	// point the cache let it pass. While replaying, the running iteration
	// has matched seen at every point so far — replayed counts them — and
	// the state hash and Visit are skipped; the first point that differs
	// truncates seen there, and from then on every passed point appends.
	// The controller drops the memo when the configuration moves (memoKey).
	// seen starts out in seenBuf, so a search no deeper than that allocates
	// nothing for its memo (a hunt of a few schedules would notice).
	seen      []uint64
	seenBuf   [128]uint64
	replaying bool
	replayed  int
}

// memoKey is everything in a TestConfig that decides which state a decision
// prefix reaches, which cache was shown it and where its handlers left their
// marks. What a harness remembers of its previous iteration — the replay memo
// and the checkpoints (checkpoint.go) — is dropped when any of it changes
// between two Runs.
type memoKey struct {
	cache       StateCache
	temperature int // monitor temperatures are state
	chessLike   bool
	faults      bool // fault decisions are not part of the prefix hash
	maxSteps    int  // a prefix longer than the bound is never reached
	coverage    *obs.StateEventCoverage
}

// same reports whether what was remembered under k is still true under next.
// With faults on it never is, nor with a cache that cannot be told from
// another one: comparing interfaces panics on an uncomparable dynamic type (a
// map-typed cache), so such a cache counts as new every time.
func (k memoKey) same(next memoKey) bool {
	return !next.faults && (next.cache == nil || reflect.ValueOf(next.cache).Comparable()) && k == next
}

func newStateHasher() *stateHasher {
	h := &stateHasher{prefix: fnvOffset64}
	h.seen = h.seenBuf[:0]
	return h
}

// reset prepares the hasher for a fresh iteration. The replay memo persists
// (the controller drops it when the configuration moves, see memoKey). comps
// stays empty until the iteration leaves its replayed prefix; stateHash's
// growth path then hashes every live machine once.
func (h *stateHasher) reset() {
	h.comps = h.comps[:0]
	h.agg = 0
	h.dirty = h.dirty[:0]
	h.marked = h.marked[:0]
	h.prefix = fnvOffset64
	h.replaying, h.replayed = true, 0
	h.err = nil
}

// markDirtySeq records that machine Seq's component must be rehashed. New
// machines whose component slot does not exist yet are picked up by the
// growth path in stateHash.
func (h *stateHasher) markDirtySeq(seq uint64) {
	idx := int(seq) - 1
	if idx < 0 || idx >= len(h.marked) {
		return
	}
	if h.marked[idx] {
		return
	}
	h.marked[idx] = true
	h.dirty = append(h.dirty, idx)
}

// hashMachine computes one machine's component: identity, FSM state,
// scheduler status, mid-handler position, queue contents (sender, event
// type, payload — not the global send sequence, which differs across
// behaviorally equivalent interleavings), and the logic value's fields, the
// user values by their state plans in one walk. Execution is serialized, so
// the queue is read unlocked.
func (h *stateHasher) hashMachine(m *machineInstance, status machineStatus) uint64 {
	w := &h.walk
	w.reset()
	w.h = fold(foldString(fold(w.h, m.id.Seq), m.state), uint64(status))
	if m.handling {
		// Mid-handler: the position is the chain's event plus everything it
		// did since.
		m.foldChain()
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
	return mix64(w.h)
}

// foldChain folds into hprog the ops m's chain has logged since the last
// fold, yield points aside: two continuations that sent, created or drew
// differently are different program positions. Folded ops no snapshot
// records (m.chain is nil) are dropped. It runs when the machine is hashed
// and at the end of each of its steps, for the log to hold no more than a
// step's ops also where no hash is taken: on the prefix an attempt replays.
func (m *machineInstance) foldChain() {
	for _, op := range m.ops[m.folded:] {
		switch op.kind {
		case opSend:
			m.hprog = fnvUint64(fnvUint64(m.hprog, op.v), planOf(op.typ).id)
		case opCreate:
			m.hprog = fnvUint64(m.hprog, op.v|0x8000000000000000)
		case opBool:
			m.hprog = fnvUint64(m.hprog, op.v|0x100)
		case opInt:
			m.hprog = fnvUint64(m.hprog, op.v|0x200000000)
		}
	}
	if m.chain == nil {
		m.ops = m.ops[:0]
	}
	m.folded = len(m.ops)
}

// hashMonitor folds one monitor's full state — name, FSM state, hot flag,
// temperature, logic fields — into a component.
func (h *stateHasher) hashMonitor(mon *machineInstance) uint64 {
	w := &h.walk
	w.reset()
	w.h = foldString(foldString(w.h, mon.id.Type), mon.state)
	hot := uint64(0)
	if mon.st.isHot() {
		hot = 1
	}
	w.h = fold(fold(w.h, hot), uint64(mon.temp))
	if mon.logic != nil {
		w.hashLogic(&mon.logic)
	}
	if w.refused != nil && h.err == nil {
		h.err = w.refusedIn(mon.String())
	}
	return mix64(w.h)
}
