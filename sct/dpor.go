package sct

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/psharp-go/psharp"
)

// DPOR is dynamic partial-order reduction with sleep sets (Flanagan &
// Godefroid) over the schedule tree DFS enumerates. Where DFS branches on
// every enabled machine at every node, DPOR executes one branch, observes
// the effect footprint of each step (psharp.StepOp, delivered through the
// psharp.StepObserver hook), and only inserts backtracking points where
// reordering could matter: when a step races with — is dependent on and
// performed by a different machine than — an earlier step, the earlier
// step's node gets the racing machine added to its backtrack set. Nodes
// explore only their backtrack sets (a persistent-set restriction of
// NextMachine), so commuting interleavings of independent steps collapse
// into one explored schedule.
//
// Two steps are dependent when their footprints overlap: same machine, one
// touches a machine the other created or targets, both send to the same
// mailbox, or both were observed by specification monitors (a monitor is
// order-sensitive shared state, so monitored steps are conservatively
// mutually dependent). The analysis has no vector clocks; when the racing
// machine was not enabled at the earlier node, all of that node's enabled
// machines are added — a sound over-approximation.
//
// Sleep sets prune the remaining commutative redundancy: a branch fully
// explored at a node puts its footprint to sleep for the node's later
// branches, descending until some executed step is dependent with it; the
// frontier choice avoids sleeping machines. Unlike classic sleep sets the
// backtrack choice never skips a sleeping branch (skipping interacts
// unsoundly with over-approximate backtrack sets), so a sleep-blocked
// execution can still run — redundantly but soundly; pairing DPOR with
// Options.StateCache truncates those quickly.
//
// Like DFS, DPOR is exhaustive up to the depth bound: PrepareIteration
// returns false once every backtrack point is explored. Every DFS
// guarantee carries over — byte-deterministic replay of found bugs, cursor
// serialization for resumable campaigns (SaveCursor/LoadCursor), and
// CloneForWorker sharding by root residue class. Because the backtrack
// sets that matter to one shard can be discovered while another shard's
// subtree is executing, sharded clones over-approximate the root to full
// branching — the reduction then applies within each shard's subtree.
//
// DPOR is a safety-exploration strategy: it is unfair in the same way DFS
// is, so pairing it with LivenessTemperature can flag starvation schedules
// a fair scheduler would not produce (exactly like DFS). Fault injection
// is not supported in this version — the fault injector wrapper would hide
// the StepObserver hook and fault decisions are not footprint-tracked; the
// engine and psharp-test refuse the combination.
//
// Like DFS, DPOR implements psharp.PrefixResumer: iterations may start from
// a harness checkpoint instead of from setup, which requires pure machine
// factories and no mutable state shared through setup's closures (see
// psharp.NewTestHarness).
type DPOR struct {
	stack     []dporNode
	pos       int
	exhausted bool

	shard  int
	shards int
	jumped bool

	// curSched is the stack index of the schedule node whose step is
	// currently executing (-1 between steps); bool/int nodes may be pushed
	// between the schedule decision and its ObserveStep.
	curSched int
	// curSleep is the sleep set at the current depth of this iteration's
	// descent: footprints of fully explored sibling branches, kept while
	// every executed step is independent of them.
	curSleep []dporOp
}

// dporOp is a step's effect footprint, the unit of the dependence
// relation and of sleep-set entries.
type dporOp struct {
	machine  psharp.MachineID
	target   psharp.MachineID
	created  psharp.MachineID
	observed bool
}

// dporDep reports whether two steps are dependent: reordering them could
// change program behavior.
func dporDep(a, b dporOp) bool {
	if a.observed && b.observed {
		return true
	}
	if a.machine.Seq == b.machine.Seq {
		return true
	}
	// One step touches a machine the other runs as, sends to, or creates.
	if overlaps(a.machine.Seq, b.target.Seq, b.created.Seq) ||
		overlaps(b.machine.Seq, a.target.Seq, a.created.Seq) {
		return true
	}
	// Same mailbox: two sends to one target do not commute.
	if a.target.Seq != 0 && a.target.Seq == b.target.Seq {
		return true
	}
	return false
}

func overlaps(m, target, created uint64) bool {
	return (target != 0 && m == target) || (created != 0 && m == created)
}

type dporNode struct {
	kind    psharp.DecisionKind
	options int
	// idx is the current branch of a bool/int node.
	idx int

	// Schedule-node fields. machines is the enabled set; chosen indexes
	// the branch being explored; backtrack marks branches that must be
	// explored (grown by race analysis); explored marks branches whose
	// subtrees are complete; done holds the footprints of explored
	// branches, feeding the sleep set of later branches.
	machines  []psharp.MachineID
	chosen    int
	backtrack []bool
	explored  []bool
	done      []dporOp
	// op is the footprint of the chosen branch's step, recorded at its
	// first execution (opKnown); re-chosen branches re-record.
	op      dporOp
	opKnown bool
}

// NewDPOR returns a fresh partial-order-reducing strategy.
func NewDPOR() *DPOR { return &DPOR{shards: 1, curSched: -1} }

// CloneForWorker returns a DPOR owning the root branches congruent to
// worker modulo workers, like DFS.CloneForWorker.
func (s *DPOR) CloneForWorker(worker, workers int) Strategy {
	return &DPOR{shard: worker, shards: workers, curSched: -1}
}

// Exhausted reports whether every backtrack point has been explored.
func (s *DPOR) Exhausted() bool { return s.exhausted }

// PrepareIteration backtracks to the deepest node with an unexplored
// backtracked branch; it returns false once none remain.
func (s *DPOR) PrepareIteration(iter int) bool {
	if s.exhausted {
		return false
	}
	s.curSleep = s.curSleep[:0]
	s.curSched = -1
	if iter == 0 {
		s.pos = 0
		return true
	}
	if s.shards > 1 && !s.jumped {
		s.jumped = true
		if s.shard != 0 {
			// Discard the probe's subtree (it belongs to worker 0) and jump
			// the root into this shard's residue class.
			if len(s.stack) == 0 || s.shard >= s.stack[0].options {
				s.exhausted = true
				return false
			}
			root := s.stack[0]
			root.chosen = s.shard
			root.opKnown = false
			root.op = dporOp{}
			root.done = nil
			root.explored = make([]bool, len(root.machines))
			s.stack = append(s.stack[:0], root)
			s.pos = 0
			return true
		}
	}
	for len(s.stack) > 0 {
		n := &s.stack[len(s.stack)-1]
		if n.kind != psharp.DecisionSchedule {
			n.idx++
			if n.idx < n.options {
				break
			}
			s.stack = s.stack[:len(s.stack)-1]
			continue
		}
		// Leaving the chosen branch: its subtree is complete. Its footprint
		// joins the node's done set, putting it to sleep for later branches.
		if !n.explored[n.chosen] {
			n.explored[n.chosen] = true
			if n.opKnown {
				n.done = append(n.done, n.op)
			}
		}
		next := -1
		for i := range n.machines {
			if len(s.stack) == 1 && s.shards > 1 && i%s.shards != s.shard {
				continue // sharded root: stay in this worker's residue class
			}
			if n.backtrack[i] && !n.explored[i] {
				next = i
				break
			}
		}
		if next >= 0 {
			n.chosen = next
			n.opKnown = false
			n.op = dporOp{}
			break
		}
		s.stack = s.stack[:len(s.stack)-1]
	}
	if len(s.stack) == 0 {
		s.exhausted = true
		return false
	}
	s.pos = 0
	return true
}

// NextMachine replays the current prefix and extends the tree at the
// frontier, preferring a machine outside the sleep set.
func (s *DPOR) NextMachine(_ psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	if s.pos < len(s.stack) {
		n := &s.stack[s.pos]
		s.curSched = s.pos
		s.pos++
		if n.kind != psharp.DecisionSchedule {
			panic(fmt.Sprintf("sct: DPOR replay divergence: expected %v node, got schedule point", n.kind))
		}
		if n.chosen < len(n.machines) && contains(enabled, n.machines[n.chosen]) {
			return n.machines[n.chosen]
		}
		panic("sct: DPOR replay divergence: enabled set changed; program has uncontrolled nondeterminism")
	}
	node := dporNode{
		kind:      psharp.DecisionSchedule,
		options:   len(enabled),
		machines:  append([]psharp.MachineID(nil), enabled...),
		backtrack: make([]bool, len(enabled)),
		explored:  make([]bool, len(enabled)),
	}
	node.chosen = s.pickAwake(enabled)
	if len(s.stack) == 0 {
		// The root explores every branch: backtrack points discovered deep
		// in one subtree may name machines of another residue class, so
		// sharded clones partition a full root rather than a grown one (and
		// an unsharded run loses nothing — unreached root branches of a
		// genuinely reduced tree stay cheap, their subtrees collapse into
		// sleep-set-guided, cache-truncated stubs).
		for i := range node.backtrack {
			node.backtrack[i] = true
		}
	} else {
		node.backtrack[node.chosen] = true
	}
	s.curSched = len(s.stack)
	s.stack = append(s.stack, node)
	s.pos++
	return enabled[node.chosen]
}

// pickAwake returns the index of the first enabled machine with no sleep
// entry, or 0 when every enabled machine sleeps (a redundant but sound
// execution; the state cache truncates it).
func (s *DPOR) pickAwake(enabled []psharp.MachineID) int {
	for i, m := range enabled {
		asleep := false
		for _, e := range s.curSleep {
			if e.machine.Seq == m.Seq {
				asleep = true
				break
			}
		}
		if !asleep {
			return i
		}
	}
	return 0
}

// ObserveStep implements psharp.StepObserver: it receives the executed
// step's footprint, records it on the step's node (running race analysis
// on first execution), and advances the sleep set.
func (s *DPOR) ObserveStep(op psharp.StepOp) {
	if s.curSched < 0 || s.curSched >= len(s.stack) {
		return
	}
	n := &s.stack[s.curSched]
	o := dporOp{machine: op.Machine, target: op.Target, created: op.Created, observed: op.Observed}
	if !n.opKnown {
		n.op = o
		n.opKnown = true
		s.addBacktracks(s.curSched)
	}
	s.sleepPast(n, o)
	s.curSched = -1
}

// sleepPast advances the sleep set over node n, whose chosen step did o.
// Entering the node's subtree, sibling branches already explored there go to
// sleep. Then every entry dependent with the executed step wakes (is dropped)
// — reordering against it matters, so the subtree below must be free to
// schedule it.
func (s *DPOR) sleepPast(n *dporNode, o dporOp) {
	s.curSleep = append(s.curSleep, n.done...)
	kept := s.curSleep[:0]
	for _, e := range s.curSleep {
		if !dporDep(e, o) {
			kept = append(kept, e)
		}
	}
	s.curSleep = kept
}

// RepeatedPrefix implements psharp.PrefixResumer, like DFS.RepeatedPrefix.
func (s *DPOR) RepeatedPrefix(prev []psharp.Decision) int {
	k := min(len(s.stack)-1, len(prev))
	for i := 0; i < k; i++ {
		n := &s.stack[i]
		idx := n.idx
		if n.kind == psharp.DecisionSchedule {
			if idx = n.chosen; !n.opKnown {
				return i // a branch not executed yet has no place in a sleep set
			}
		}
		if !repeats(&prev[i], n.kind, idx, n.machines) {
			return i
		}
	}
	return max(k, 0)
}

// ResumeAt implements psharp.PrefixResumer: besides the position, the sleep
// set is what n executed steps would have left it — rebuilt from the
// footprint and the explored siblings every node on the way keeps.
func (s *DPOR) ResumeAt(n int) {
	s.pos, s.curSched = n, -1
	s.curSleep = s.curSleep[:0]
	for i := range s.stack[:n] {
		if node := &s.stack[i]; node.kind == psharp.DecisionSchedule {
			s.sleepPast(node, node.op)
		}
	}
}

// addBacktracks is the DPOR race analysis: find the most recent earlier
// step that is dependent with the newly executed step and performed by a
// different machine, and make that step's node also explore the new
// step's machine (or, when it was not enabled there, all its machines).
func (s *DPOR) addBacktracks(at int) {
	n := &s.stack[at]
	for i := at - 1; i >= 0; i-- {
		a := &s.stack[i]
		if a.kind != psharp.DecisionSchedule || !a.opKnown {
			continue
		}
		if a.op.machine.Seq == n.op.machine.Seq {
			continue // program order, not a race
		}
		if a.op.created.Seq != 0 && a.op.created.Seq == n.op.machine.Seq {
			continue // creation happens-before every step of the machine
		}
		if !dporDep(a.op, n.op) {
			continue
		}
		if j := indexOfMachine(a.machines, n.op.machine); j >= 0 {
			a.backtrack[j] = true
		} else {
			for k := range a.backtrack {
				a.backtrack[k] = true
			}
		}
		return
	}
}

func indexOfMachine(ids []psharp.MachineID, id psharp.MachineID) int {
	for i, x := range ids {
		if x.Seq == id.Seq {
			return i
		}
	}
	return -1
}

// NextBool explores both boolean values systematically, like DFS.
func (s *DPOR) NextBool() bool {
	return s.choice(psharp.DecisionBool, 2) == 1
}

// NextInt explores all n values systematically, like DFS.
func (s *DPOR) NextInt(n int) int {
	return s.choice(psharp.DecisionInt, n)
}

func (s *DPOR) choice(kind psharp.DecisionKind, n int) int {
	if s.pos < len(s.stack) {
		node := &s.stack[s.pos]
		s.pos++
		if node.kind != kind || node.options != n {
			panic("sct: DPOR replay divergence on nondeterministic choice")
		}
		return node.idx
	}
	s.stack = append(s.stack, dporNode{kind: kind, options: n})
	s.pos++
	return 0
}

// dporCursorVersion versions the DPOR cursor blob layout inside journal
// cursor records.
const dporCursorVersion = 1

// SaveCursor serializes the DPOR frontier — the stack with its backtrack
// sets, explored bitmaps, done footprints and recorded ops — implementing
// CursorStrategy so journaled DPOR campaigns resume exactly where they
// stopped.
func (s *DPOR) SaveCursor() []byte {
	buf := []byte{dporCursorVersion}
	var flags byte
	if s.jumped {
		flags |= 1
	}
	if s.exhausted {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(s.shard))
	buf = binary.AppendUvarint(buf, uint64(s.shards))
	buf = binary.AppendUvarint(buf, uint64(len(s.stack)))
	for i := range s.stack {
		n := &s.stack[i]
		buf = append(buf, byte(n.kind))
		buf = binary.AppendUvarint(buf, uint64(n.options))
		buf = binary.AppendUvarint(buf, uint64(n.idx))
		if n.kind != psharp.DecisionSchedule {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(n.chosen))
		buf = binary.AppendUvarint(buf, uint64(len(n.machines)))
		for _, m := range n.machines {
			buf = appendCursorID(buf, m)
		}
		for j := range n.machines {
			var b byte
			if n.backtrack[j] {
				b |= 1
			}
			if n.explored[j] {
				b |= 2
			}
			buf = append(buf, b)
		}
		if n.opKnown {
			buf = append(buf, 1)
			buf = appendCursorOp(buf, n.op)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(n.done)))
		for _, d := range n.done {
			buf = appendCursorOp(buf, d)
		}
	}
	return buf
}

func appendCursorID(buf []byte, m psharp.MachineID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m.Type)))
	buf = append(buf, m.Type...)
	return binary.AppendUvarint(buf, m.Seq)
}

func appendCursorOp(buf []byte, o dporOp) []byte {
	buf = appendCursorID(buf, o.machine)
	buf = appendCursorID(buf, o.target)
	buf = appendCursorID(buf, o.created)
	if o.observed {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// LoadCursor restores a frontier saved by SaveCursor; the receiver must be
// configured for the same worker shard.
func (s *DPOR) LoadCursor(cursor []byte) error {
	r := cursorReader{buf: cursor}
	if v := r.byte(); v != dporCursorVersion {
		return fmt.Errorf("unknown DPOR cursor version %d", v)
	}
	flags := r.byte()
	shard, shards := int(r.uvarint()), int(r.uvarint())
	if r.err == nil && (shard != s.shard || shards != s.shards) {
		return fmt.Errorf("DPOR cursor was saved for shard %d/%d, this worker is shard %d/%d", shard, shards, s.shard, s.shards)
	}
	nodes := int(r.uvarint())
	if r.err == nil && nodes > len(cursor) {
		return errors.New("DPOR cursor stack length exceeds blob size")
	}
	stack := make([]dporNode, 0, nodes)
	for i := 0; i < nodes && r.err == nil; i++ {
		n := dporNode{
			kind:    psharp.DecisionKind(r.byte()),
			options: int(r.uvarint()),
			idx:     int(r.uvarint()),
		}
		if n.kind == psharp.DecisionSchedule {
			n.chosen = int(r.uvarint())
			machines := int(r.uvarint())
			if r.err == nil && machines > len(cursor) {
				return errors.New("DPOR cursor machine count exceeds blob size")
			}
			for j := 0; j < machines && r.err == nil; j++ {
				n.machines = append(n.machines, r.id())
			}
			n.backtrack = make([]bool, len(n.machines))
			n.explored = make([]bool, len(n.machines))
			for j := range n.machines {
				b := r.byte()
				n.backtrack[j] = b&1 != 0
				n.explored[j] = b&2 != 0
			}
			if r.byte() != 0 {
				n.op = r.op()
				n.opKnown = true
			}
			done := int(r.uvarint())
			if r.err == nil && done > len(cursor) {
				return errors.New("DPOR cursor done count exceeds blob size")
			}
			for j := 0; j < done && r.err == nil; j++ {
				n.done = append(n.done, r.op())
			}
		}
		stack = append(stack, n)
	}
	if r.err != nil {
		return r.err
	}
	s.stack = stack
	s.pos = 0
	s.curSched = -1
	s.curSleep = nil
	s.jumped = flags&1 != 0
	s.exhausted = flags&2 != 0
	return nil
}

func (r *cursorReader) id() psharp.MachineID {
	return psharp.MachineID{Type: r.string(), Seq: r.uvarint()}
}

func (r *cursorReader) op() dporOp {
	return dporOp{machine: r.id(), target: r.id(), created: r.id(), observed: r.byte() != 0}
}
