package psharp

import (
	"math/bits"
	"slices"
)

// Quiescent checkpoints: a depth-first attempt does not re-execute the
// prefix it shares with the attempt before it.
//
// The paper's tester is stateless — every schedule starts from setup — and
// under a depth-first strategy almost everything an attempt executes is the
// previous attempt's decisions made again to get back to the backtrack point.
// A Go machine parked in the middle of a handler is a coroutine stack, which
// nothing can copy; but at a scheduling point taken on the controller's own
// stack with no machine parked mid-handler — a quiescent point — the whole
// program is data: each instance's logic value and state — a machine's with
// its mailbox and status, a monitor's (a machine that observes) with its
// temperature — and a handful of the controller's counters. A snapshot is a
// deep copy of that, one record per instance (stateWalk.copy, one walk, so
// what machines, monitors and queued events share stays shared), and an
// iteration that starts from one is set up from it instead of from the user's
// setup function: the same acquireInstance/onCreate path, with every machine
// entering run between two handlers, where it was.
//
// Which iterations may: the strategy says, through PrefixResumer, how many of
// the previous iteration's decisions the next one repeats; the controller
// rewinds to the deepest snapshot inside that prefix, keeps the trace up to
// there and tells the strategy where it resumes. An iteration with no usable
// snapshot rewinds to position 0, which is running setup: one path, not two.
// Restored scheduling points count as points of the schedule everywhere
// (SchedulingPoints, ReplayedPoints, the trace, fingerprints); only
// IterationResult.RestoredPoints, wall time, allocations and Runtime.Metrics
// — which count what was executed — tell.
//
// Which snapshots are taken is decided with no knob. An iteration that
// repeats part of the one before it records one bit per decision position:
// was it quiescent. The next one, while it replays toward its backtrack
// point, snapshots at most once: at the deepest quiescent position, past
// where it started, inside the prefix that all of the last backtrackWindow
// iterations repeated (the search dips a few levels up and comes back all
// the time; a snapshot deeper than the dips is dropped before it has paid
// for itself). The first iteration of a search therefore records and takes
// nothing, and a program whose machines are always mid-handler never pays
// for a copy. The stack holds maxCheckpoints snapshots; the shallowest goes
// first.
//
// What has no checkpoint, and replays from setup exactly as before: a
// strategy without PrefixResumer (every non-depth-first one, and a wrapper
// that hides it); TestConfig.Faults, RaceDetect or an execution log, whose
// state or output a snapshot does not carry; a program with a closure-form
// (MachineFunc) machine or monitor, whose state lives in captured variables;
// state holding a live func, chan or unsafe.Pointer, or pointers into the
// middle of other objects, which a copy would not be faithful to; and the
// first Run after the configuration changed (memoKey). Everything else must
// keep its state where the tester can see it: in machine and monitor logic
// values and in events. A handler's effects on anything else — a variable its
// setup closure captured, a file — are not repeated for restored points, just
// as the state cache never saw them.

// PrefixResumer is implemented by strategies whose next iteration repeats a
// prefix of the previous one and can be started in the middle of it: the
// depth-first ones (sct.DFS, sct.DPOR). TestHarness.Run discovers it once
// per iteration, like StepObserver.
type PrefixResumer interface {
	// RepeatedPrefix is called before an iteration with the decisions of the
	// iteration the harness ran last. It returns n such that the iteration
	// about to run will answer its first n queries exactly as prev[:n]
	// records: a promise, so 0 when in doubt.
	RepeatedPrefix(prev []Decision) int
	// ResumeAt tells the strategy that the iteration starts after the first
	// n of those decisions, n no larger than RepeatedPrefix returned: the next
	// Decide is the query that follows them.
	ResumeAt(n int)
}

const (
	// maxCheckpoints bounds the snapshot stack of a harness.
	maxCheckpoints = 8
	// backtrackWindow is how many iterations' backtrack points a snapshot
	// must lie inside: the search dips a few levels up and comes back all the
	// time, and a snapshot deeper than a dip is dropped by it. Snapshotting
	// inside the current iteration's prefix alone (a window of 1) restores a
	// few more points and is slower for it: table2_reduced −5 % (median of 30
	// alternating pairs a cell; AsyncSystemSim under DPOR+cache −30 %, Chord
	// −20 %) at +6 % bytes allocated per attempt.
	backtrackWindow = 4
)

// snapshot is the program at a quiescent scheduling point.
type snapshot struct {
	pos       int // decisions made before the point: the trace length there
	steps     int
	continued int
	current   MachineID
	sendSeq   uint64
	prefix    uint64 // stateHasher.prefix, when a cache is attached
	machines  []instanceState
	monitors  []instanceState
}

// instanceState is one machine or monitor as a snapshot holds it.
type instanceState struct {
	id     MachineID
	schema *compiledSchema
	logic  Machine
	state  string
	st     *stateSpec // nil: not booted yet, birth is what boot will start from
	status machineStatus
	halted bool
	temp   int
	queue  []envelope
	birth  Event
}

// save records m in is. It reports false, recording nothing usable, for an
// instance whose schema is not the one bound to its name (bound): the closure
// form, whose state lives in captured variables rather than its logic value.
func (is *instanceState) save(w *stateWalk, m *machineInstance, bound *compiledSchema) bool {
	if m.schema != bound {
		return false
	}
	*is = instanceState{id: m.id, schema: m.schema, state: m.state, st: m.st, halted: m.halted, temp: m.temp}
	w.copyLogic(&is.logic, &m.logic)
	if q := m.queued(); len(q) > 0 {
		is.queue = make([]envelope, len(q))
		for j := range q {
			is.queue[j] = envelope{sender: q[j].sender, seq: q[j].seq}
			w.copyEvent(&is.queue[j].event, &q[j].event)
		}
	}
	if m.st == nil {
		w.copyEvent(&is.birth, &m.birth)
	}
	return true
}

// load puts a fresh copy of the instance is records into m, a just acquired
// instance of the same ID and schema; is stays as it is.
func (is *instanceState) load(w *stateWalk, m *machineInstance) {
	w.copyLogic(&m.logic, &is.logic)
	m.state, m.st, m.halted, m.temp = is.state, is.st, is.halted, is.temp
	for j := range is.queue {
		m.push(envelope{sender: is.queue[j].sender, seq: is.queue[j].seq})
		w.copyEvent(&m.queue[len(m.queue)-1].event, &is.queue[j].event)
	}
	w.copyEvent(&m.birth, &is.birth)
}

// checkpoints is what a controller remembers of its previous iteration in
// order not to run it again. A controller makes one when an iteration first
// repeats part of the one before: a harness that runs one schedule, or
// schedules of a strategy that repeats nothing, never has any.
type checkpoints struct {
	stack []*snapshot // by increasing pos
	// quiet has bit p set when the pass at trace length p of the last
	// iteration to get there was quiescent. Only an iteration that repeats
	// some of the one before it records (recording): the first iteration of a
	// search, which may well be its last, does not pay for a second that may
	// never come. The set starts out in quietBuf.
	quiet     bitset
	quietBuf  [8]uint64
	recording bool
	// target is the position this iteration snapshots at, 0 for none. recent
	// holds the repeated-prefix lengths of the last backtrackWindow iterations.
	target int
	recent [backtrackWindow]int
	iter   int
	// unfit: a snapshot of this program was refused; none is tried again
	// until the configuration changes.
	unfit bool
	walk  stateWalk
}

// forget drops everything remembered.
func (ck *checkpoints) forget() {
	clear(ck.stack)
	ck.stack = ck.stack[:0]
	ck.quiet.clearFrom(0)
	ck.unfit = false
	ck.recent, ck.iter = [backtrackWindow]int{}, 0
}

// bitset is a growable set of small non-negative integers.
type bitset []uint64

func (b *bitset) set(i int) {
	for i/64 >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[i/64] |= 1 << (i % 64)
}

// clearFrom removes every member ≥ i.
func (b bitset) clearFrom(i int) {
	if w := i / 64; w < len(b) {
		b[w] &= 1<<(i%64) - 1
		clear(b[w+1:])
	}
}

// last returns the largest member in [lo, hi], or -1.
func (b bitset) last(lo, hi int) int {
	for w := min(hi/64, len(b)-1); w >= 0 && w >= lo/64; w-- {
		word := b[w]
		if w == hi/64 && hi%64 != 63 {
			word &= 1<<(hi%64+1) - 1
		}
		if word != 0 {
			if i := w*64 + 63 - bits.LeadingZeros64(word); i >= lo {
				return i
			}
			return -1
		}
	}
	return -1
}

// rewind starts an iteration: it restores the deepest snapshot inside the
// decision prefix the strategy promises to repeat and returns its position,
// leaving the trace that long; 0 means nothing was restored and setup has to
// run. It also picks the position this iteration will snapshot at.
func (c *controller) rewind() int {
	at, k := 0, 0
	if c.resumer != nil {
		k = c.resumer.RepeatedPrefix(c.trace.Decisions)
	}
	if c.ck == nil && k > 0 {
		c.ck = &checkpoints{}
		c.ck.quiet = c.ck.quietBuf[:0]
	}
	if ck := c.ck; ck != nil {
		ck.target, ck.recording = 0, k > 0
		n := len(ck.stack)
		for n > 0 && ck.stack[n-1].pos > k {
			n-- // taken inside a subtree the search has left
		}
		clear(ck.stack[n:])
		ck.stack = ck.stack[:n]
		if n > 0 {
			at = ck.stack[n-1].pos
			c.restore(ck.stack[n-1])
			c.resumer.ResumeAt(at)
		}
		ck.recent[ck.iter%backtrackWindow] = k
		ck.iter++
		if !ck.unfit {
			ck.target = max(ck.quiet.last(at+1, slices.Min(ck.recent[:])), 0)
		}
		ck.quiet.clearFrom(at) // this iteration rewrites the rest
	}
	c.trace.Decisions = c.trace.Decisions[:at]
	return at
}

// loopPass is pass as loop runs it: on the controller's stack, which is where
// the program can be quiescent. It records whether it is and takes the
// snapshot this iteration was waiting to take here.
func (c *controller) loopPass() passOutcome {
	if ck := c.ck; ck != nil && ck.recording && c.parked == 0 {
		pos := len(c.trace.Decisions)
		ck.quiet.set(pos)
		if pos == ck.target && pos > 0 && c.bug == nil {
			c.snapshot(pos)
		}
	}
	return c.pass()
}

// snapshot copies the program as it stands at trace length pos onto the
// stack — or finds that it cannot be copied faithfully and gives up on the
// program.
func (c *controller) snapshot(pos int) {
	ck, rt := c.ck, c.rt
	w := &ck.walk
	w.reset()
	s := &snapshot{pos: pos, steps: c.steps, continued: c.continued, current: c.current, sendSeq: c.sendSeq,
		machines: make([]instanceState, len(rt.machines)), monitors: make([]instanceState, len(rt.monitors))}
	if c.hasher != nil {
		s.prefix = c.hasher.prefix
	}
	for i, m := range rt.machines {
		if !s.machines[i].save(w, m, rt.schemas[m.id.Type]) {
			ck.unfit = true
			return
		}
		s.machines[i].status = c.statuses[i]
	}
	for i, m := range rt.monitors {
		if !s.monitors[i].save(w, m, rt.monitorSchemas[m.id.Type]) {
			ck.unfit = true
			return
		}
	}
	if w.refused != nil || w.unfaithful || w.overlaps() {
		ck.unfit = true
		return
	}
	if len(ck.stack) == maxCheckpoints {
		copy(ck.stack, ck.stack[1:])
		ck.stack = ck.stack[:maxCheckpoints-1]
	}
	ck.stack = append(ck.stack, s)
}

// restore sets the reset harness up from s, as setup would from nothing:
// machines through acquireInstance and onCreate, monitors through
// attachMonitor, each with a fresh copy of its state — s stays as it is for
// the next iteration to start from.
func (c *controller) restore(s *snapshot) {
	rt := c.rt
	w := &c.ck.walk
	w.reset()
	for i := range s.machines {
		is := &s.machines[i]
		m := c.acquireInstance(rt, is.id, nil, is.schema)
		is.load(w, m)
		rt.machines = append(rt.machines, m)
		c.onCreate(m, 0)
		c.statuses[i] = is.status
	}
	rt.nextSeq = uint64(len(s.machines))
	c.ready = c.ready[:0]
	for i, st := range c.statuses {
		if st == msReady {
			c.ready = append(c.ready, rt.machines[i].id)
		}
	}
	for i := range s.monitors {
		is := &s.monitors[i]
		is.load(w, rt.attachMonitor(is.id, nil, is.schema))
	}
	c.steps, c.continued, c.current, c.sendSeq = s.steps, s.continued, s.current, s.sendSeq
	if h := c.hasher; h != nil {
		// Every point before this one was shown to the cache by an earlier
		// iteration, under these prefixes: they count as replayed.
		h.prefix, h.replayed = s.prefix, s.steps
	}
	c.restored = s.steps
}
