package psharp

import (
	"math"
	"reflect"
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
// off (and stays allocation-free per steady-state step when on, except for
// the reflective deep hash of map-typed logic fields).

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
// prefix reaches an equal state. A cache must therefore answer a repeated
// Visit(state, prefix, depth) as it answered the first — any ownership rule
// does under a depth-first strategy, which finishes a prefix's subtree
// before any other prefix can take the state at a smaller depth — and a
// cache shared by several harnesses cannot prune one of them inside its
// own replay. One-shot RunTest calls, and caches whose dynamic type is not
// comparable (so "the same cache as last time" cannot be told), are
// consulted at every point.
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

// maxDeepHashDepth bounds the reflective walk over machine logic and event
// payloads; it caps cost and breaks pointer cycles.
const maxDeepHashDepth = 8

// stateHasher computes the incremental global-state hash. Per-machine
// components (FSM state, controller status, queue contents, mid-handler
// position, deep-hashed logic fields) are cached and XORed into an
// aggregate; each step dirties only the machines it touched — the machine
// that ran, its send target, machines it created — so a scheduling point
// rehashes O(step footprint) machines, not O(machines). Monitors are few
// and shallow and are rehashed fresh at every point (their temperatures
// change every step under liveness checking).
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
	// typeIDs interns event and payload types to stable per-run IDs.
	typeIDs map[reflect.Type]uint64

	// seen is the replay memo: seen[k] is the decision-prefix hash the
	// harness's previous iteration had at scheduling point k, for every
	// point the cache let it pass. While replaying, the running iteration
	// has matched seen at every point so far — replayed counts them — and
	// the state hash and Visit are skipped; the first point that differs
	// truncates seen there, and from then on every passed point appends.
	// key is what of the TestConfig the memo was recorded under. seen starts
	// out in seenBuf, so a search no deeper than that allocates nothing for
	// its memo (a hunt of a few schedules would notice).
	seen      []uint64
	seenBuf   [128]uint64
	replaying bool
	replayed  int
	key       memoKey
}

// memoKey is everything in a TestConfig that decides which state a decision
// prefix reaches and which cache was shown it. The replay memo is dropped
// when any of it changes between two Runs of a harness.
type memoKey struct {
	cache       StateCache
	temperature int // monitor temperatures feed the hash
	chessLike   bool
	faults      bool // fault decisions are not part of the prefix hash
}

func newStateHasher() *stateHasher {
	h := &stateHasher{prefix: fnvOffset64, typeIDs: make(map[reflect.Type]uint64)}
	h.seen = h.seenBuf[:0]
	return h
}

// reset prepares the hasher for a fresh iteration under cfg. Type interning
// persists across iterations (types are a property of the program, not the
// run), and so does the replay memo unless it could lie: faults are on, the
// configuration moved, or the cache cannot be told from another one —
// comparing interfaces panics on an uncomparable dynamic type (a map-typed
// cache), so such a cache counts as new every time. comps stays empty
// until the iteration leaves its replayed prefix; stateHash's growth path
// then hashes every live machine once.
func (h *stateHasher) reset(cfg *TestConfig) {
	h.comps = h.comps[:0]
	h.agg = 0
	h.dirty = h.dirty[:0]
	h.marked = h.marked[:0]
	h.prefix = fnvOffset64
	key := memoKey{cfg.StateCache, cfg.LivenessTemperature, cfg.ChessLike, cfg.Faults != nil}
	if key.faults || !reflect.ValueOf(key.cache).Comparable() || key != h.key {
		h.seen = h.seen[:0]
	}
	h.key = key
	h.replaying, h.replayed = true, 0
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

// typeID interns a reflect.Type to a stable hash for this run: of its
// package path and name under its pointer indirections, because String
// abbreviates the path to the package name — a/msg.Ping and b/msg.Ping
// would share an ID, and two states that differ only in which of them is
// queued would be one. Unnamed types have only String to go by.
func (h *stateHasher) typeID(t reflect.Type) uint64 {
	if id, ok := h.typeIDs[t]; ok {
		return id
	}
	id, base := fnvOffset64, t
	for base.Kind() == reflect.Pointer {
		id, base = fnvByte(id, '*'), base.Elem()
	}
	if base.Name() != "" {
		id = fnvString(fnvByte(fnvString(id, base.PkgPath()), '.'), base.Name())
	} else {
		id = fnvString(id, base.String())
	}
	h.typeIDs[t] = id
	return id
}

// eventHash identifies an event by type and payload.
func (h *stateHasher) eventHash(ev Event) uint64 {
	if ev == nil {
		return mix64(0x9e3779b97f4a7c15)
	}
	return fnvUint64(h.typeID(eventKey(ev)), h.deepHash(reflect.ValueOf(ev), 0))
}

// deepHash walks a value reflectively and folds its contents into a hash.
// It reads unexported fields through kind-switched accessors (Int, Uint,
// Bool, String, Float64bits — all legal on unexported fields), XORs map
// entries so iteration order cannot leak in, and skips funcs, channels and
// unsafe pointers. The depth cap bounds cost and breaks cycles.
func (h *stateHasher) deepHash(v reflect.Value, depth int) uint64 {
	if !v.IsValid() || depth > maxDeepHashDepth {
		return 0x9e3779b9
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return 0x9e3779b97f4a7c15
		}
		return 0x85ebca6b7f4a7c15
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return mix64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return mix64(v.Uint())
	case reflect.Float32, reflect.Float64:
		return mix64(math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		return mix64(math.Float64bits(real(c)) ^ mix64(math.Float64bits(imag(c))))
	case reflect.String:
		return fnvString(fnvOffset64, v.String())
	case reflect.Pointer:
		if v.IsNil() {
			return 0xc2b2ae3d
		}
		return mix64(h.deepHash(v.Elem(), depth+1) ^ 0x27d4eb2f)
	case reflect.Interface:
		if v.IsNil() {
			return 0xc2b2ae3d
		}
		e := v.Elem()
		return fnvUint64(h.typeID(e.Type()), h.deepHash(e, depth+1))
	case reflect.Struct:
		hh := fnvOffset64
		for i := 0; i < v.NumField(); i++ {
			hh = fnvUint64(hh, h.deepHash(v.Field(i), depth+1))
		}
		return hh
	case reflect.Slice, reflect.Array:
		n := v.Len()
		hh := fnvUint64(fnvOffset64, uint64(n))
		if n > 128 {
			n = 128 // bound pathological payloads; length is already mixed
		}
		for i := 0; i < n; i++ {
			hh = fnvUint64(hh, h.deepHash(v.Index(i), depth+1))
		}
		return hh
	case reflect.Map:
		if v.IsNil() {
			return 0xc2b2ae3d
		}
		var x uint64
		iter := v.MapRange()
		for iter.Next() {
			x ^= mix64(fnvUint64(h.deepHash(iter.Key(), depth+1), h.deepHash(iter.Value(), depth+1)))
		}
		return fnvUint64(fnvUint64(fnvOffset64, uint64(v.Len())), x)
	default: // Chan, Func, UnsafePointer, Invalid
		return 0x165667b1
	}
}

// hashMachine computes one machine's component: identity, FSM state,
// scheduler status, mid-handler position, queue contents (sender, event
// type, payload — not the global send sequence, which differs across
// behaviorally equivalent interleavings), and the deep hash of the logic
// value's fields. Execution is serialized, so the queue is read unlocked.
func (h *stateHasher) hashMachine(m *machineInstance, status machineStatus) uint64 {
	c := fnvUint64(fnvOffset64, m.id.Seq)
	c = fnvString(c, m.state)
	c = fnvByte(c, byte(status))
	if m.handling {
		// Mid-handler: the position is the dispatched event plus every
		// visible operation since. Operations not yet folded are folded now.
		for _, op := range m.hops {
			m.hprog = fnvUint64(m.hprog, op.word)
			if op.sent != nil {
				m.hprog = fnvUint64(m.hprog, h.typeID(eventKey(op.sent)))
			}
		}
		clear(m.hops)
		m.hops = m.hops[:0]
		c = fnvUint64(fnvUint64(c, m.hprog), h.eventHash(m.hev))
	}
	q := m.queued()
	c = fnvUint64(c, uint64(len(q)))
	for i := range q {
		env := &q[i]
		c = fnvUint64(c, env.sender.Seq)
		c = fnvUint64(c, h.eventHash(env.event))
	}
	if m.logic != nil {
		c = fnvUint64(c, h.deepHash(reflect.ValueOf(m.logic), 0))
	}
	return mix64(c)
}

// hashMonitor folds one monitor's full state — name, FSM state, hot flag,
// temperature, logic fields — into a component.
func (h *stateHasher) hashMonitor(mon *monitorInstance) uint64 {
	c := fnvString(fnvOffset64, mon.name)
	c = fnvString(c, mon.state)
	if mon.hot {
		c = fnvByte(c, 1)
	} else {
		c = fnvByte(c, 0)
	}
	c = fnvUint64(c, uint64(mon.temp))
	if mon.logic != nil {
		c = fnvUint64(c, h.deepHash(reflect.ValueOf(mon.logic), 0))
	}
	return mix64(c)
}
