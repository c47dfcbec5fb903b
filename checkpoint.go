package psharp

import (
	"reflect"
	"slices"
	"unsafe"

	"github.com/psharp-go/psharp/obs"
)

// Checkpoints: a depth-first attempt does not re-execute the prefix it
// shares with the attempt before it.
//
// The paper's tester is stateless — every schedule starts from setup — and
// under a depth-first strategy almost everything an attempt executes is the
// previous attempt's decisions made again to get back to the backtrack point.
// A snapshot of the program at a scheduling point spares that: each
// instance's logic value and state — a machine's with its mailbox and status,
// a monitor's (a machine that observes) with its hot period — and a handful
// of the controller's counters, one record per instance. Taking one (and
// recording a handler start, below) is the only time a checkpoint reads the
// program's memory: one copy walk (stateWalk.copy) over every instance
// makes the snapshot's image — its objects, the pointer
// slots inside them, and one root per logic value, queued event and birth
// payload — so what machines, monitors and queued events share stays
// shared. An iteration that starts from one is set up from it instead of
// from the user's setup function: the same acquireInstance/onCreate path,
// with every machine entering run where it was and its state a relocation
// of the image: objects allocated and typed-copied, slots patched, maps
// rebuilt, no walk.
//
// A machine parked in the middle of a handler is a coroutine stack, which
// nothing can copy; but it can be rebuilt, because a handler is a
// deterministic function of its machine's state, its event and its
// controlled choices. Every handler chain a machine starts — at a dequeue,
// or at its birth: the handler, then whatever exits, gotos, entries and
// raises follow — keeps a log of what it does: its sends, creates and draws
// and the yield points it passes (machineInstance.note), the log the state
// hash folds its mid-handler position from. While an iteration has a
// snapshot to take ahead, the chain also records an image of the machine's
// logic and of the event as they were when it began (handlerStart). A
// snapshot holds a parked machine as that record and a copy of that log,
// with its mailbox as it stands. A restore re-runs the chain on the
// machine's own coroutine in catch-up mode: sends, creates and monitor
// notifications have no effect (the snapshot has them already), every op
// is matched against the log, creates and draws return what it says, and at
// the yield point it ends with the machine parks without asking the
// strategy — where it was. Its state-hash position comes back as it was,
// being folded from the same log.
//
// What breaks the contract breaks the rebuild, silently, as it breaks
// replay: a handler that reads what another machine writes outside events —
// a package variable, an object setup captured — or that touches an object
// after sending it away (what the paper's ownership analysis forbids). A
// machine that does not get back to its yield point, or does another thing
// than its log holds next, fails the iteration as a BugPanic.
//
// Which iterations may: the strategy says, through PrefixResumer, how many of
// the previous iteration's decisions the next one repeats; the controller
// rewinds to the deepest snapshot inside that prefix, keeps the trace up to
// there and tells the strategy where it resumes. An iteration with no usable
// snapshot rewinds to position 0, which is running setup: one path, not two.
// Restored scheduling points count as points of the schedule everywhere
// (SchedulingPoints, ReplayedPoints, ContinuedPoints, the trace,
// fingerprints); only IterationResult.RestoredPoints, wall time, allocations
// and Runtime.Metrics — which count what was executed — tell.
//
// Which snapshots are taken is decided with no knob. An iteration that
// repeats part of the one before it records the positions of its scheduling
// points and which machines were parked at each. The next one, while it
// replays toward its backtrack point, snapshots at most once — and records
// handler starts only for the machines parked there: at the deepest point,
// past where it started, inside the prefix that
// all of the last backtrackWindow iterations repeated (the search dips a few
// levels up and comes back all the time; a snapshot deeper than the dips is
// dropped before it has paid for itself). The first iteration of a search
// therefore records and takes nothing. The stack holds maxCheckpoints
// snapshots; the shallowest goes first.
//
// The one fallback: a handler start copied apart from the snapshot must share
// no memory with anything else the snapshot holds — another machine, a
// monitor, a queued event, another handler start — or the rebuilt machine
// and the restored rest would no longer share it (the spans stateWalk.overlaps
// leaves, compared across the walks). A machine whose handler start does is
// stuck: until the configuration changes, snapshots sit only at points where
// no stuck machine is parked — the deepest quiescent point, once every
// machine that parks is stuck. The snapshot that found it out is not taken.
//
// What has no checkpoint, and replays from setup exactly as before: a
// strategy without PrefixResumer (every non-depth-first one, and a wrapper
// that hides it); TestConfig.Faults, RaceDetect or an execution log, whose
// state or output a snapshot does not carry; a program with a closure-form
// (MachineFunc) machine, whose state lives in captured variables;
// state holding a live func, chan or unsafe.Pointer, or pointers into the
// middle of other objects, which a copy would not be faithful to; and the
// first Run after the configuration changed (inheritKey). Only the first and
// the last of these also turn off the state cache's skip of the prefix the
// strategy promises to repeat. A program with a monitor that declares a hot
// state is checkpointed like any other: the lasso table is rewound to the
// repeated prefix (stateHasher.keepLassos) and a monitor's hot period is in
// its record. Everything else must keep its state where the
// tester can see it: in machine and monitor logic values and in events. A
// handler's effects on anything else — a variable its setup closure captured,
// a file — are not repeated for restored points, just as the state cache
// never saw them.

// PrefixResumer is implemented by strategies whose next iteration repeats a
// prefix of the previous one and can be started in the middle of it: the
// depth-first ones (sct.DFS, sct.DPOR). TestHarness.Run discovers it once
// per iteration, like StepObserver. Its promise also bounds what an iteration
// does not show the state cache (see StateCache).
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

// snapshot is the program at a scheduling point.
type snapshot struct {
	pos       int // decisions made before the point: the trace length there
	steps     int
	continued int
	current   MachineID
	onStack   MachineID // the machine whose yield point took the pass, if one did
	prefix    uint64    // stateHasher.prefix, when a cache is attached
	machines  []instanceState
	monitors  []instanceState
	img       image // what the roots of machines and monitors stand on
	// starts holds the handler starts of the machines parked at the point,
	// copied in when the snapshot is taken; the machines' chains point here.
	starts []handlerStart
}

// instanceState is one machine or monitor as a snapshot holds it.
type instanceState struct {
	id      MachineID
	schema  *compiledSchema
	st      *stateSpec // nil: not booted yet, birth is what boot will start from
	status  machineStatus
	halted  bool
	hotFrom int
	logic   imageRoot
	queue   []queued
	birth   imageRoot
	// A machine parked at a yield point (log not empty) is rebuilt: it
	// re-runs chain — or, if chain is nil, starts from logic at the CHESS
	// dequeue it yielded at — matching log op for op, and parks at the yield
	// point log ends with.
	chain *handlerStart
	log   []chainOp
}

// queued is an event in a mailbox as a snapshot holds it.
type queued struct {
	sender MachineID
	event  imageRoot
}

// handlerStart is a machine as it began a handler chain: its logic and the
// event (the birth payload when st is nil: the chain is the boot), copied
// into an image of their own, and its state. A handler start is not written
// once made: its copies — the one recorded, the one a snapshot holds —
// share the image's objects, which a relocation only reads.
type handlerStart struct {
	img   image
	logic imageRoot
	event imageRoot
	st    *stateSpec
}

// set makes hs a copy of from, reusing hs's arrays.
func (hs *handlerStart) set(from *handlerStart) {
	img := hs.img
	img.reset()
	*hs = *from
	hs.img = image{
		objs:  append(img.objs, from.img.objs...),
		slots: append(img.slots, from.img.slots...),
		maps:  append(img.maps, from.img.maps...),
	}
}

// unrecorded stands for the start of a chain no faithful copy was made of —
// one a copy would not be faithful to, or one that began when the machine
// was not expected to be parked at the snapshot, which only a program
// nondeterministic beyond its choices can make happen: nothing can rebuild
// the machine running it.
var unrecorded = &handlerStart{}

// save records m in is, a record a dropped snapshot may have used before. It
// reports false, recording nothing usable, for an instance whose schema is
// not the one bound to its name (bound): a closure-form machine, whose state
// lives in captured variables rather than its logic value. (A monitor is
// always static.) A machine is parked when it is in a chain or at a CHESS
// dequeue; the one whose stack takes the pass is too.
func (is *instanceState) save(w *stateWalk, m *machineInstance, bound *compiledSchema) bool {
	if m.schema != bound {
		return false
	}
	queue, log := is.queue[:0], is.log[:0]
	*is = instanceState{id: m.id, schema: m.schema, st: m.st, status: m.status, halted: m.halted, hotFrom: m.hotFrom}
	switch {
	case m.dequeueing:
		is.logic = w.logicRoot(&m.logic) // between two chains, one yield short of the next
		log = append(log, chainOp{kind: opYield})
	case m.handling:
		is.chain, log = m.chain, append(log, m.ops...)
		if is.chain == nil {
			is.chain = unrecorded
		}
	default:
		is.logic = w.logicRoot(&m.logic)
	}
	is.log = log
	if q := m.queued(); len(q) > 0 {
		queue = slices.Grow(queue, len(q))[:len(q)]
		for j := range q {
			queue[j] = queued{sender: q[j].sender, event: w.eventRoot(&q[j].event)}
		}
	}
	is.queue = queue
	if m.st == nil {
		is.birth = w.eventRoot(&m.birth)
	}
	return true
}

// load puts the instance is records into m, a just acquired instance of the
// same ID and schema, from ck.rel, the relocation of the snapshot's image;
// is stays as it is. A parked machine comes back as it began its chain, set
// to catch up: its logic and event from a relocation of the chain's own
// image.
func (is *instanceState) load(ck *checkpoints, m *machineInstance) {
	rel := &ck.rel
	m.st, m.halted, m.hotFrom = is.st, is.halted, is.hotFrom
	if hs := is.chain; hs != nil {
		cr := &ck.chainRel
		cr.restore(&hs.img)
		m.st = hs.st
		cr.put(unsafe.Pointer(&m.logic), hs.logic)
		if hs.st == nil {
			cr.put(unsafe.Pointer(&m.birth), hs.event)
		} else {
			cr.put(unsafe.Pointer(&m.replayEv), hs.event)
			rel.put(unsafe.Pointer(&m.birth), is.birth)
		}
		cr.release()
	} else {
		rel.put(unsafe.Pointer(&m.logic), is.logic)
		rel.put(unsafe.Pointer(&m.birth), is.birth)
	}
	for j := range is.queue {
		q := &is.queue[j]
		m.push(envelope{sender: q.sender})
		rel.put(unsafe.Pointer(&m.queue[len(m.queue)-1].event), q.event)
	}
	m.chain = is.chain
	if len(is.log) > 0 {
		m.replayLog = is.log
	}
}

// checkpoints is what a controller remembers of its previous iteration in
// order not to run it again. A controller makes one when an iteration first
// repeats part of the one before: a harness that runs one schedule, or
// schedules of a strategy that repeats nothing, never has any.
type checkpoints struct {
	stack []*snapshot // by increasing pos
	// passes[p] is, for the last iteration to get to trace length p, whether
	// it took a scheduling pass there (bit 0) and which machines were parked
	// mid-handler at it (machineBit). Only an iteration that repeats some of
	// the one before it records (recording): the first iteration of a search,
	// which may well be its last, does not pay for a second that may never
	// come.
	passes    []uint64
	recording bool
	// target is the position this iteration snapshots at, 0 for none; chains
	// are the machines parked there, whose handler starts are recorded while
	// it is ahead. recent holds the repeated-prefix lengths of the last
	// backtrackWindow iterations.
	target int
	chains uint64
	recent [backtrackWindow]int
	iter   int
	// unfit: a snapshot of this program was refused; none is tried again
	// until the configuration changes. stuck: the machines a snapshot could
	// not rebuild; until then snapshots are taken where none of them is
	// parked.
	unfit bool
	stuck uint64
	walk  stateWalk
	// rel and chainRel relocate a snapshot's image and, machine by machine,
	// the images of the handler starts it holds.
	rel, chainRel relocation
	// spare holds snapshots dropped from the stack, for the next ones to
	// reuse their arrays. The first nrecords of recorded are the handler
	// starts this iteration has recorded; the next iteration reuses them,
	// and a snapshot keeps copies.
	spare    []*snapshot
	recorded []*handlerStart
	nrecords int
}

// machineBit is machine i's bit (i indexes rt.machines) in a passes word:
// machines past the 62nd share the last bit.
func machineBit(i int) uint64 { return 1 << min(i+1, 63) }

// forget drops everything remembered.
func (ck *checkpoints) forget() {
	clear(ck.stack)
	ck.stack = ck.stack[:0]
	clear(ck.spare)
	ck.spare = ck.spare[:0]
	ck.passes = ck.passes[:0]
	ck.unfit, ck.stuck = false, 0
	ck.recent, ck.iter = [backtrackWindow]int{}, 0
}

// inheritKey is everything in a TestConfig that decides which state a
// decision prefix reaches, which cache was shown it and where its handlers
// left their marks. What a Run inherits from the one before it — that one's
// trace, as a prefix the cache passed, and the checkpoints — holds only while
// the key is unchanged.
type inheritKey struct {
	cache     StateCache
	chessLike bool
	faults    bool // fault decisions are not part of the prefix hash
	live      bool // a lasso table is kept: setup registers a monitor with a hot state
	maxSteps  int  // a prefix longer than the bound is never reached
	coverage  *obs.StateEventCoverage
}

// same reports whether what was recorded under k is still true under next.
// With faults on it never is, nor with a cache that cannot be told from
// another one: comparing interfaces panics on an uncomparable dynamic type (a
// map-typed cache), so such a cache counts as new every time.
func (k inheritKey) same(next inheritKey) bool {
	return !next.faults && (next.cache == nil || reflect.ValueOf(next.cache).Comparable()) && k == next
}

// rewind starts an iteration with what it inherits from the one before, and
// is the one place that decides it: under an unchanged configuration, the
// decision prefix the strategy promises to repeat, whose points the cache
// and the lasso check passed then, the lasso table as that prefix left it,
// and the deepest snapshot inside it, which it restores. It
// returns the snapshot's position, leaving the trace that long; 0 means
// nothing was restored and setup has to run. It also picks the position this
// iteration will snapshot at.
func (c *controller) rewind() int {
	cfg := &c.cfg
	// Whether the program states a liveness property showed when setup last
	// ran, or a snapshot was last restored (c.live), and setup is
	// deterministic; setup or the restore says it again.
	key := inheritKey{cfg.StateCache, cfg.ChessLike, cfg.Faults != nil, c.live, cfg.MaxSteps, cfg.Coverage}
	resuming := c.key.same(key) && c.resumer != nil
	c.key, c.live = key, false
	at, k, keep := 0, 0, 0
	if resuming {
		prev := c.trace.Decisions
		k = c.resumer.RepeatedPrefix(prev)
		if h := c.hasher; h != nil {
			h.replayTo = min(k+1, len(prev)) // p <= k, and the previous iteration decided at p
			keep = h.replayTo
		}
	}
	if h := c.kept; h != nil {
		h.keepLassos(keep)
	}
	// Checkpoints carry neither vector clocks nor fault bookkeeping (faults
	// never keep the key), and a restored prefix writes no log.
	if !resuming || cfg.RaceDetect || c.rt.logging() {
		k = 0
		if c.ck != nil {
			c.ck.forget()
		}
	}
	if c.ck == nil && k > 0 {
		c.ck = &checkpoints{}
	}
	if ck := c.ck; ck != nil {
		ck.target, ck.chains, ck.recording, ck.nrecords = 0, 0, k > 0, 0
		n := len(ck.stack)
		for n > 0 && ck.stack[n-1].pos > k {
			n-- // taken inside a subtree the search has left
		}
		ck.spare = append(ck.spare, ck.stack[n:]...)
		clear(ck.stack[n:])
		ck.stack = ck.stack[:n]
		if n > 0 {
			at = ck.stack[n-1].pos
		}
		ck.recent[ck.iter%backtrackWindow] = k
		ck.iter++
		if !ck.unfit {
			for p := min(slices.Min(ck.recent[:]), len(ck.passes)-1); p > at; p-- {
				if w := ck.passes[p]; w&1 != 0 && w&ck.stuck == 0 {
					ck.target, ck.chains = p, w&^1
					break
				}
			}
		}
		ck.passes = ck.passes[:min(at, len(ck.passes))] // this iteration rewrites the rest
		if n > 0 {
			c.restore(ck.stack[n-1])
			c.resumer.ResumeAt(at)
		}
	}
	c.trace.Decisions = c.trace.Decisions[:at]
	return at
}

// loopPass is pass as loop runs it: on the controller's stack, with no
// machine running.
func (c *controller) loopPass() passOutcome {
	if c.ck != nil {
		c.checkpoint(nil)
	}
	return c.pass()
}

// checkpoint is where a pass starts, on the stack of running (nil: loop's),
// in a harness that has checkpoints. It records the point and the machines
// parked at it, and takes the snapshot this iteration was waiting to take
// here.
func (c *controller) checkpoint(running *machineInstance) {
	ck := c.ck
	if !ck.recording {
		return
	}
	pos := len(c.trace.Decisions)
	for len(ck.passes) <= pos {
		ck.passes = append(ck.passes, 0)
	}
	w := uint64(1)
	for i, m := range c.rt.machines {
		if m.handling || m.dequeueing {
			w |= machineBit(i)
		}
	}
	ck.passes[pos] = w
	if pos == ck.target && pos > 0 && c.bug == nil {
		// Once an iteration: taking it may send the snapshot the iteration
		// was restored from to spare, and until the iteration ends the
		// restored machines' chains point into that one's starts.
		ck.target, ck.chains = 0, 0
		c.snapshot(pos, running)
	}
}

// beginChain is where machine m starts a handler chain on ev — at a dequeue,
// or at its birth — under the controller: the chain's log starts empty, and
// while a snapshot is ahead that wants m parked, a copy of where the chain
// started is recorded for the snapshot to rebuild it from. A machine
// catching up is re-running the chain a snapshot recorded.
func (c *controller) beginChain(m *machineInstance, ev Event) {
	m.handling, m.ev, m.ops, m.folded, m.hprog = true, ev, m.ops[:0], 0, hashSeed
	if m.replayLog != nil {
		return
	}
	m.chain, m.chainSpans = nil, m.chainSpans[:0]
	if ck := c.ck; ck != nil && ck.chains&machineBit(int(m.id.Seq-1)) != 0 {
		m.chain = ck.handlerStart(m, ev)
	}
}

// handlerStart copies m's logic and the event ev of the chain m begins into
// the next of this iteration's records, and leaves the memory they occupy in
// m.chainSpans.
func (ck *checkpoints) handlerStart(m *machineInstance, ev Event) *handlerStart {
	if ck.nrecords == len(ck.recorded) {
		ck.recorded = append(ck.recorded, &handlerStart{})
	}
	hs := ck.recorded[ck.nrecords]
	w := &ck.walk
	w.begin(&hs.img)
	hs.logic, hs.event, hs.st = w.logicRoot(&m.logic), w.root(eventIface, *(*ifaceWords)(unsafe.Pointer(&ev))), m.st
	if w.refused != nil || w.unfaithful || w.overlaps() {
		return unrecorded
	}
	ck.nrecords++
	m.chainSpans = append(m.chainSpans, w.spans...)
	return hs
}

// snapshot copies the program as it stands at trace length pos onto the
// stack — or finds that it cannot be copied faithfully and gives up on the
// program, or that a parked machine cannot be rebuilt faithfully and marks it
// stuck.
func (c *controller) snapshot(pos int, running *machineInstance) {
	ck, rt := c.ck, c.rt
	var s *snapshot
	if n := len(ck.spare); n > 0 {
		s = ck.spare[n-1]
		ck.spare[n-1] = nil
		ck.spare = ck.spare[:n-1]
	} else {
		s = &snapshot{}
	}
	*s = snapshot{pos: pos, steps: c.steps, continued: c.continued, current: c.current,
		machines: slices.Grow(s.machines[:0], len(rt.machines))[:len(rt.machines)],
		monitors: slices.Grow(s.monitors[:0], len(rt.monitors))[:len(rt.monitors)],
		img:      s.img, starts: s.starts}
	ck.walk.begin(&s.img)
	if running != nil {
		s.onStack = running.id
	}
	if c.hasher != nil {
		s.prefix = c.hasher.prefix
	}
	if !c.save(s) {
		ck.spare = append(ck.spare, s)
		return
	}
	if len(ck.stack) == maxCheckpoints {
		ck.spare = append(ck.spare, ck.stack[0])
		copy(ck.stack, ck.stack[1:])
		ck.stack = ck.stack[:maxCheckpoints-1]
	}
	ck.stack = append(ck.stack, s)
}

// save records every instance in s, or reports why it cannot: unfit when the
// program cannot be copied faithfully, stuck when a parked machine cannot be
// rebuilt faithfully.
func (c *controller) save(s *snapshot) bool {
	ck, rt := c.ck, c.rt
	w := &ck.walk
	for i, m := range rt.machines {
		if !s.machines[i].save(w, m, rt.schemas[m.id.Type]) {
			ck.unfit = true
			return false
		}
	}
	for i, m := range rt.monitors {
		if !s.monitors[i].save(w, m, rt.monitorSchemas[m.id.Type]) {
			ck.unfit = true
			return false
		}
	}
	if w.refused != nil || w.unfaithful || w.overlaps() {
		ck.unfit = true
		return false
	}
	// The handler starts recorded in this iteration were copied in walks of
	// their own, from memory as it was then: none of it may be memory the
	// snapshot reaches otherwise, or another of them. (One a restore handed
	// down was checked when it was first saved, and what was copied apart
	// then was restored apart.)
	stuck := uint64(0)
	for i, m := range rt.machines {
		hs := s.machines[i].chain
		if hs == nil {
			continue
		}
		if hs == unrecorded || sharing(m.chainSpans, w.spans) {
			stuck |= machineBit(i)
		}
		for j, o := range rt.machines[:i] {
			if s.machines[j].chain != nil && sharing(m.chainSpans, o.chainSpans) {
				stuck |= machineBit(i) | machineBit(j)
			}
		}
	}
	ck.stuck |= stuck
	if stuck != 0 {
		return false
	}
	// The snapshot keeps its own copies of the handler starts: a recorded one
	// is reused by the next iteration, and one a restore handed down lives
	// in a snapshot that may be dropped first.
	n := 0
	for i := range s.machines {
		if s.machines[i].chain != nil {
			n++
		}
	}
	if n > cap(s.starts) {
		s.starts = append(s.starts[:cap(s.starts)], make([]handlerStart, n-cap(s.starts))...)
	}
	s.starts, n = s.starts[:n], 0
	for i := range s.machines {
		if is := &s.machines[i]; is.chain != nil {
			s.starts[n].set(is.chain)
			is.chain = &s.starts[n]
			n++
		}
	}
	return true
}

// restore sets the reset harness up from s, as setup would from nothing:
// machines through acquireInstance and onCreate, monitors through
// attachMonitor, their state a relocation of s's image — s stays as it is
// for the next iteration to start from. Then every machine s holds parked
// mid-handler catches up to where it was.
func (c *controller) restore(s *snapshot) {
	rt, ck := c.rt, c.ck
	ck.rel.restore(&s.img)
	for i := range s.machines {
		is := &s.machines[i]
		m := c.acquireInstance(rt, is.id, nil, is.schema)
		is.load(ck, m)
		rt.machines = append(rt.machines, m)
		c.onCreate(m, 0)
		m.status = is.status
	}
	rt.nextSeq = uint64(len(s.machines))
	c.ready = c.ready[:0]
	for _, m := range rt.machines {
		if m.status == msReady {
			c.ready = append(c.ready, m.id)
		}
	}
	for i := range s.monitors {
		is := &s.monitors[i]
		is.load(ck, rt.attachMonitor(is.id, nil, is.schema))
	}
	ck.rel.release()
	c.steps, c.continued, c.current = s.steps, s.continued, s.current
	c.resumedOn = s.onStack
	if h := c.hasher; h != nil {
		// Every point before this one lies inside the prefix the strategy
		// promised to repeat and was shown to the cache and the lasso table
		// by an earlier iteration, under these prefixes: they count as
		// replayed where there is a cache.
		h.prefix = s.prefix
		if c.cfg.StateCache != nil {
			h.replayed = s.steps
		}
	}
	c.restored = s.steps
	for _, m := range rt.machines {
		if m.replayLog == nil {
			continue
		}
		if kind, _ := m.next(); (kind != ykYield || m.replayLog != nil) && c.bug == nil {
			c.bug = m.bug
			if c.bug == nil {
				c.bug = &Bug{Kind: BugPanic, Machine: m.id, State: m.state(), Message: m.diverged("did not get back to where it was")}
			}
		}
	}
}
