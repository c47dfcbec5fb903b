package sct

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/psharp-go/psharp"
)

// DFS is the paper's systematic depth-first scheduler: the schedule space is
// a tree whose nodes are schedule prefixes and whose branches are the
// enabled machines (and, unlike the paper's P# DFS but as it prescribes for
// systematic exploration, the values of controlled nondeterministic
// choices). DFS explores a different schedule on every iteration and, given
// enough iterations and an acyclic state space, explores all of them; when
// the tree is exhausted PrepareIteration returns false. Fault injection is
// not supported: the injector draws its faults afresh each iteration, so the
// prefix DFS replays would not happen again; the engine and psharp-test
// refuse the combination.
//
// A worker clone (CloneForWorker) shards the tree by its first decision:
// worker k of n owns the root branches congruent to k modulo n, so the
// clones partition the schedule tree and their union covers it exactly.
// Every clone's first iteration is a probe down the leftmost path (the root
// branching factor is unknown before the first execution); after the probe,
// clones other than worker 0 jump their root into their own residue class,
// so at most n-1 duplicate schedules are explored per parallel run.
//
// DFS implements psharp.PrefixResumer, so a psharp.TestHarness starts an
// iteration from a checkpoint inside the prefix it repeats, without running
// setup, whenever it holds one. That asks of the program under test that its
// machine factories be pure and its state live in machine and monitor logic
// values and events, not in variables setup allocated and closures captured:
// see psharp.NewTestHarness.
type DFS struct{ tree }

// NewDFS returns a fresh depth-first strategy.
func NewDFS() *DFS { return &DFS{tree{shards: 1}} }

// CloneForWorker returns a DFS owning the root branches congruent to worker
// modulo workers; the clones jointly cover the whole schedule tree.
func (s *DFS) CloneForWorker(worker, workers int) Strategy {
	return &DFS{tree{shard: worker, shards: workers}}
}

// DPOR is DFS with dynamic partial-order reduction and sleep sets (Flanagan
// & Godefroid): the same search of the same tree, whose schedule nodes
// explore a backtrack set instead of every enabled machine. DPOR executes
// one branch, observes the effect footprint of each step (psharp.StepOp,
// delivered through the psharp.StepObserver hook), and only inserts
// backtracking points where reordering could matter: when a step races with
// — is dependent on and performed by a different machine than — an earlier
// step, the earlier step's node gets the racing machine added to its
// backtrack set, so commuting interleavings of independent steps collapse
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
// Everything else is DFS's, being the same code: exhaustive up to the depth
// bound, byte-deterministic replay, cursors, checkpointed prefixes (under the
// same conditions on the program) and sharding by root residue class — the
// backtrack sets that matter to one shard can be discovered while another
// shard's subtree is executing, so the root explores every branch and the
// reduction applies within each shard's subtree.
//
// DPOR explores liveness as well as safety: the controller's lasso verdict
// does not report a cycle that starves a machine, so the search's
// unfairness costs no false alarm (see "Liveness checking"); with the state
// cache it reaches FairResponder's lasso. Fault injection is not supported
// — besides the replay, the fault injector would hide the StepObserver hook
// and fault decisions are not footprint-tracked; the engine and psharp-test
// refuse the combination.
type DPOR struct{ tree }

// NewDPOR returns a fresh partial-order-reducing strategy.
func NewDPOR() *DPOR { return &DPOR{tree{reduce: true, shards: 1}} }

// CloneForWorker returns a DPOR owning the root branches congruent to
// worker modulo workers, like DFS.CloneForWorker.
func (s *DPOR) CloneForWorker(worker, workers int) Strategy {
	return &DPOR{tree{reduce: true, shard: worker, shards: workers}}
}

// ObserveStep implements psharp.StepObserver: it receives the executed
// step's footprint, records it on the step's node (running race analysis
// on first execution), and advances the sleep set. Only DPOR has it, so a
// DFS run observes no steps.
func (s *DPOR) ObserveStep(op psharp.StepOp) { s.observe(op) }

// DelayBounding is delay-bounded search (Emmi, Qadeer and Rakamarić, POPL
// 2011, the paper's reference [9]): DFS whose schedule nodes start their
// branches at what round robin would run — the first enabled machine at or
// after the one that ran last — so that branch k delays it k times, and
// whose paths spend at most a bound of delays, deepened 0, 1, …, budget
// from the root (a schedule within a lower bound runs again under the
// higher ones). Bool and int choices cost no delay. Exhausted means every
// schedule within budget has run. Replay, cursors and checkpoints are DFS's.
type DelayBounding struct{ tree }

// NewDelayBounding returns a delay-bounded search of budget delays per
// schedule; it draws nothing and needs no horizon, so seed and expectedSteps
// are unused.
func NewDelayBounding(seed uint64, budget, expectedSteps int) *DelayBounding {
	return &DelayBounding{tree{delay: true, budget: max(budget, 0), shards: 1}}
}

// CloneForWorker returns a DelayBounding owning the schedules whose first
// delay is at a depth congruent to worker modulo workers (root branch k
// costs k delays, so root residues would leave worker 0 nearly all), and
// worker 0 those without; the others re-run them, from bound 1.
func (s *DelayBounding) CloneForWorker(worker, workers int) Strategy {
	c := tree{delay: true, budget: s.budget, shard: worker, shards: workers}
	if worker != 0 {
		c.bound, c.exhausted = min(s.budget, 1), s.budget == 0
	}
	return &DelayBounding{c}
}

// tree is the depth-first search of the schedule tree that DFS, DPOR and
// DelayBounding all are: a stack of the decisions on the current path,
// replayed from the root on every iteration and extended at the frontier,
// backtracked between iterations to the deepest node with a branch left.
type tree struct {
	stack     []node
	pos       int
	exhausted bool

	// reduce is what tells DPOR from DFS, and the search reads it in one
	// place: where NextMachine makes a schedule node, which then carries a
	// reduction or does not. (The cursor records it, so that a frontier is
	// not loaded into the other search.)
	reduce bool
	// delay is what tells DelayBounding from DFS: branch k of a schedule
	// node costs k delays, and a path spends at most bound, deepened to budget.
	delay         bool
	bound, budget int

	shard  int
	shards int
	jumped bool // the post-probe root jump has happened

	// curSched is the stack index of the schedule node whose step is
	// currently executing (-1 between steps); bool/int nodes may be pushed
	// between the schedule decision and its observe.
	curSched int
	// curSleep is the sleep set at the current depth of this iteration's
	// descent: footprints of fully explored sibling branches, kept while
	// every executed step is independent of them.
	curSleep []psharp.StepOp
	// spare and spareIDs hold the reductions and the enabled sets of popped
	// nodes for the nodes pushed next.
	spare    []*reduction
	spareIDs [][]psharp.MachineID

	_ cacheLinePad
}

// node is one decision on the current path: idx is the branch being
// explored, of options. A schedule node without a reduction, like every
// bool/int node, explores its branches in order; one with a reduction
// explores the branches its backtrack set names.
type node struct {
	kind     psharp.DecisionKind
	options  int32
	idx      int32
	machines []psharp.MachineID // schedule nodes: the enabled set, one per option
	red      *reduction
}

// reduction is what partial-order reduction keeps at a schedule node.
type reduction struct {
	// flags has, per branch, toExplore once race analysis (or the frontier
	// choice) put it in the backtrack set and explored once its subtree is
	// complete.
	flags []uint8
	// done holds the footprints of explored branches, feeding the sleep set
	// of later branches.
	done []psharp.StepOp
	// op is the footprint of the current branch's step, recorded at its
	// first execution and zero (no Machine) before; re-chosen branches
	// re-record.
	op psharp.StepOp
}

const (
	toExplore uint8 = 1 << iota
	explored
)

func (r *reduction) executed() bool { return r.op.Machine.Seq != 0 }

// Exhausted reports whether the entire (depth- and delay-bounded) schedule
// tree — under reduction, every backtrack point of it — has been explored.
func (t *tree) Exhausted() bool { return t.exhausted }

// PrepareIteration advances to the next unexplored branch; it returns false
// once the whole tree has been visited.
func (t *tree) PrepareIteration(iter int) bool {
	if t.exhausted {
		return false
	}
	t.pos, t.curSched, t.curSleep = 0, -1, t.curSleep[:0]
	if iter == 0 {
		return true
	}
	if t.shards > 1 && !t.jumped && !t.delay {
		t.jumped = true
		if t.shard != 0 {
			// Discard the probe's subtree (it belongs to worker 0) and jump
			// the root decision into this shard's residue class.
			if len(t.stack) == 0 || t.shard >= int(t.stack[0].options) {
				t.exhausted = true
				return false
			}
			t.truncate(1)
			root := &t.stack[0]
			root.idx = int32(t.shard)
			if r := root.red; r != nil {
				for i := range r.flags {
					r.flags[i] &^= explored
				}
				r.done, r.op = r.done[:0], psharp.StepOp{}
			}
			return true
		}
	}
	spent := 0
	for i := 0; t.delay && i < len(t.stack); i++ {
		spent += t.cost(&t.stack[i])
	}
	// Backtrack: drop exhausted trailing nodes, then advance the deepest
	// node that still has a branch this search admits. A sharded DFS or
	// DPOR root advances by the shard stride, staying in its residue class.
	for len(t.stack) > 0 {
		top, n := len(t.stack)-1, &t.stack[len(t.stack)-1]
		first, stride := 0, 1
		if top == 0 && !t.delay {
			first, stride = t.shard, t.shards
		}
		spent -= t.cost(n)
		if n.advance(first, stride) && t.admits(top, spent, t.cost(n)) {
			return true
		}
		if top == 0 && t.bound < t.budget { // done under this bound: the next
			t.bound, n.idx = t.bound+1, 0
			return true
		}
		t.truncate(top)
	}
	t.exhausted = true
	return false
}

// admits reports whether a branch at depth i costing c delays after spent is
// within the bound and, if it is the path's first delay, this shard's.
func (t *tree) admits(i, spent, c int) bool {
	return spent+c <= t.bound && (c == 0 || spent > 0 || i%t.shards == t.shard)
}

// cost is what n's current branch spends of the delay bound.
func (t *tree) cost(n *node) int {
	if t.delay && n.kind == psharp.DecisionSchedule {
		return int(n.idx)
	}
	return 0
}

// advance moves n to its next branch among first, first+stride, … and
// reports whether there was one.
func (n *node) advance(first, stride int) bool {
	r := n.red
	if r == nil {
		n.idx += int32(stride)
		return n.idx < n.options
	}
	// Leaving the current branch: its subtree is complete. Its footprint
	// joins the node's done set, putting it to sleep for later branches.
	if r.flags[n.idx]&explored == 0 {
		r.flags[n.idx] |= explored
		if r.executed() {
			r.done = append(r.done, r.op)
		}
	}
	for i := first; i < len(r.flags); i += stride {
		if r.flags[i] == toExplore {
			n.idx, r.op = int32(i), psharp.StepOp{}
			return true
		}
	}
	return false
}

// truncate pops the nodes above depth.
func (t *tree) truncate(depth int) {
	for i := depth; i < len(t.stack); i++ {
		n := &t.stack[i]
		if n.red != nil {
			t.spare = append(t.spare, n.red)
		}
		if n.machines != nil {
			t.spareIDs = append(t.spareIDs, n.machines[:0])
		}
	}
	t.stack = t.stack[:depth]
}

// NextMachine replays the current prefix and extends the tree with a new
// node at the frontier: on the first enabled machine, under reduction on the
// first one outside the sleep set, and under a delay bound on the
// round-robin base, the first enabled machine at or after current.
func (t *tree) NextMachine(current psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	if t.pos < len(t.stack) {
		n := &t.stack[t.pos]
		if n.kind != psharp.DecisionSchedule {
			panic(fmt.Sprintf("sct: depth-first replay divergence: expected %v node, got schedule point", n.kind))
		}
		t.curSched = t.pos
		t.pos++
		if int(n.idx) < len(n.machines) && slices.Contains(enabled, n.machines[n.idx]) {
			return n.machines[n.idx]
		}
		// The enabled set changed across replays: the program under test is
		// nondeterministic beyond its controlled choices.
		panic("sct: depth-first replay divergence: enabled set changed; program has uncontrolled nondeterminism")
	}
	base := 0
	if t.delay { // rotated, so that branch k delays the base k times
		base = max(slices.IndexFunc(enabled, func(m psharp.MachineID) bool { return m.Seq >= current.Seq }), 0)
	}
	n := node{
		kind:     psharp.DecisionSchedule,
		options:  int32(len(enabled)),
		machines: append(append(t.newIDs(), enabled[base:]...), enabled[:base]...),
	}
	if t.reduce {
		n.idx = int32(t.pickAwake(enabled))
		n.red = t.newReduction(len(enabled))
		n.red.flags[n.idx] = toExplore
		if len(t.stack) == 0 {
			// The root explores every branch: backtrack points discovered deep
			// in one subtree may name machines of another residue class, so
			// sharded clones partition a full root rather than a grown one (and
			// an unsharded run loses nothing — unreached root branches of a
			// genuinely reduced tree stay cheap, their subtrees collapse into
			// sleep-set-guided, cache-truncated stubs).
			for i := range n.red.flags {
				n.red.flags[i] = toExplore
			}
		}
	}
	t.curSched = len(t.stack)
	t.stack = append(t.stack, n)
	t.pos++
	return n.machines[n.idx]
}

// newIDs returns an empty enabled set to fill, a popped node's if there is one.
func (t *tree) newIDs() []psharp.MachineID {
	k := len(t.spareIDs)
	if k == 0 {
		return nil
	}
	ids := t.spareIDs[k-1]
	t.spareIDs = t.spareIDs[:k-1]
	return ids
}

func (t *tree) newReduction(branches int) *reduction {
	k := len(t.spare)
	if k == 0 {
		return &reduction{flags: make([]uint8, branches)}
	}
	r := t.spare[k-1]
	t.spare = t.spare[:k-1]
	r.flags = slices.Grow(r.flags[:0], branches)[:branches]
	clear(r.flags)
	r.done, r.op = r.done[:0], psharp.StepOp{}
	return r
}

// pickAwake returns the index of the first enabled machine with no sleep
// entry, or 0 when every enabled machine sleeps (a redundant but sound
// execution; the state cache truncates it).
func (t *tree) pickAwake(enabled []psharp.MachineID) int {
	for i, m := range enabled {
		if !slices.ContainsFunc(t.curSleep, func(e psharp.StepOp) bool { return e.Machine.Seq == m.Seq }) {
			return i
		}
	}
	return 0
}

// NextBool explores both boolean values systematically.
func (t *tree) NextBool() bool { return t.choice(psharp.DecisionBool, 2) == 1 }

// NextInt explores all n values systematically.
func (t *tree) NextInt(n int) int { return t.choice(psharp.DecisionInt, n) }

// Decide implements psharp.DecisionStrategy through the three methods; a
// fault query is declined (the engine refuses faults with a depth-first
// search).
func (t *tree) Decide(c *psharp.Choice, d *psharp.Decision) {
	switch c.Kind {
	case psharp.ChoiceMachine:
		d.Kind, d.Machine = psharp.DecisionSchedule, t.NextMachine(c.Current, c.Enabled).Ref()
	case psharp.ChoiceBool:
		d.Kind, d.Bool = psharp.DecisionBool, t.NextBool()
	case psharp.ChoiceInt:
		d.Kind, d.Int = psharp.DecisionInt, int32(t.NextInt(c.N))
	case psharp.ChoiceFault:
		d.Kind = psharp.DecisionFault
	default:
		panic(fmt.Sprintf("psharp: unknown choice kind %d", c.Kind))
	}
}

func (t *tree) choice(kind psharp.DecisionKind, n int) int {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("sct: a depth-first search cannot enumerate a choice among %d values", n))
	}
	if t.pos < len(t.stack) {
		node := &t.stack[t.pos]
		t.pos++
		if node.kind != kind || int(node.options) != n {
			panic("sct: depth-first replay divergence on nondeterministic choice")
		}
		return int(node.idx)
	}
	t.stack = append(t.stack, node{kind: kind, options: int32(n)})
	t.pos++
	return 0
}

// observe is DPOR.ObserveStep.
func (t *tree) observe(op psharp.StepOp) {
	if t.curSched < 0 || t.curSched >= len(t.stack) {
		return
	}
	r := t.stack[t.curSched].red
	if !r.executed() {
		r.op = op
		t.addBacktracks(t.curSched)
	}
	t.sleepPast(r, op)
	t.curSched = -1
}

// sleepPast advances the sleep set over a node whose current step did op.
// Entering the node's subtree, sibling branches already explored there go to
// sleep. Then every entry dependent with the executed step wakes (is dropped)
// — reordering against it matters, so the subtree below must be free to
// schedule it.
func (t *tree) sleepPast(r *reduction, op psharp.StepOp) {
	t.curSleep = append(t.curSleep, r.done...)
	t.curSleep = slices.DeleteFunc(t.curSleep, func(e psharp.StepOp) bool { return dependent(e, op) })
}

// addBacktracks is the DPOR race analysis: find the most recent earlier
// step that is dependent with the newly executed step and performed by a
// different machine, and make that step's node also explore the new
// step's machine (or, when it was not enabled there, all its machines).
func (t *tree) addBacktracks(at int) {
	op := t.stack[at].red.op
	for i := at - 1; i >= 0; i-- {
		a := &t.stack[i]
		if a.red == nil || !a.red.executed() {
			continue
		}
		earlier := a.red.op
		if earlier.Machine.Seq == op.Machine.Seq {
			continue // program order, not a race
		}
		if earlier.Created.Seq != 0 && earlier.Created.Seq == op.Machine.Seq {
			continue // creation happens-before every step of the machine
		}
		if !dependent(earlier, op) {
			continue
		}
		j := slices.IndexFunc(a.machines, func(m psharp.MachineID) bool { return m.Seq == op.Machine.Seq })
		if j >= 0 {
			a.red.flags[j] |= toExplore
		} else {
			for k := range a.red.flags {
				a.red.flags[k] |= toExplore
			}
		}
		return
	}
}

// dependent reports whether two steps are dependent: reordering them could
// change program behavior.
func dependent(a, b psharp.StepOp) bool {
	if a.Observed && b.Observed {
		return true
	}
	if a.Machine.Seq == b.Machine.Seq {
		return true
	}
	// One step touches a machine the other runs as, sends to, or creates.
	if overlaps(a.Machine.Seq, b.Target.Seq, b.Created.Seq) ||
		overlaps(b.Machine.Seq, a.Target.Seq, a.Created.Seq) {
		return true
	}
	// Same mailbox: two sends to one target do not commute.
	return a.Target.Seq != 0 && a.Target.Seq == b.Target.Seq
}

func overlaps(m, target, created uint64) bool {
	return (target != 0 && m == target) || (created != 0 && m == created)
}

// RepeatedPrefix implements psharp.PrefixResumer: every node below the one
// PrepareIteration just advanced keeps its branch, so the iteration repeats
// the previous one up to there — as far as prev is that iteration.
func (t *tree) RepeatedPrefix(prev []psharp.Decision) int {
	k := min(len(t.stack)-1, len(prev))
	for i := 0; i < k; i++ {
		n := &t.stack[i]
		if n.red != nil && !n.red.executed() {
			return i // a branch not executed yet has no place in a sleep set
		}
		if !n.answered(&prev[i]) {
			return i
		}
	}
	return max(k, 0)
}

// answered reports whether d is what n answers on its current branch.
func (n *node) answered(d *psharp.Decision) bool {
	if d.Kind != n.kind {
		return false
	}
	switch n.kind {
	case psharp.DecisionSchedule:
		return int(n.idx) < len(n.machines) && n.machines[n.idx].Seq == d.Machine.Seq
	case psharp.DecisionBool:
		return d.Bool == (n.idx == 1)
	default:
		return d.Int == n.idx
	}
}

// ResumeAt implements psharp.PrefixResumer: besides the position, the sleep
// set is what n executed steps would have left it — rebuilt from the
// footprint and the explored siblings every reduced node on the way keeps.
func (t *tree) ResumeAt(n int) {
	t.pos, t.curSched, t.curSleep = n, -1, t.curSleep[:0]
	for i := range t.stack[:n] {
		if r := t.stack[i].red; r != nil {
			t.sleepPast(r, r.op)
		}
	}
}

// cursorVersion versions the cursor blob layout inside journal cursor
// records; a build reads its own version only.
const cursorVersion = 2

const (
	cursorJumped = 1 << iota
	cursorExhausted
	cursorReduce
	cursorDelay
)

// SaveCursor serializes the frontier — the backtracking stack after the most
// recently completed iteration, with the backtrack sets and footprints of its
// reduced nodes, plus the shard layout, the flags and any delay bound —
// implementing CursorStrategy: the search's position cannot be recomputed
// from an iteration index, so resumable campaigns journal the stack itself.
func (t *tree) SaveCursor() []byte {
	var flags byte
	if t.jumped {
		flags |= cursorJumped
	}
	if t.exhausted {
		flags |= cursorExhausted
	}
	if t.reduce {
		flags |= cursorReduce
	}
	buf := []byte{cursorVersion, flags}
	buf = binary.AppendUvarint(buf, uint64(t.shard))
	buf = binary.AppendUvarint(buf, uint64(t.shards))
	if t.delay {
		buf[1] |= cursorDelay
		buf = binary.AppendUvarint(buf, uint64(t.bound))
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.stack)))
	for i := range t.stack {
		n := &t.stack[i]
		buf = append(buf, byte(n.kind))
		buf = binary.AppendUvarint(buf, uint64(n.options))
		buf = binary.AppendUvarint(buf, uint64(n.idx))
		for _, m := range n.machines {
			buf = appendCursorID(buf, m)
		}
		if r := n.red; r != nil {
			buf = append(buf, r.flags...)
			buf = appendCursorOp(buf, r.op)
			buf = binary.AppendUvarint(buf, uint64(len(r.done)))
			for _, d := range r.done {
				buf = appendCursorOp(buf, d)
			}
		}
	}
	return buf
}

func appendCursorID(buf []byte, m psharp.MachineID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m.Type)))
	buf = append(buf, m.Type...)
	return binary.AppendUvarint(buf, m.Seq)
}

func appendCursorOp(buf []byte, o psharp.StepOp) []byte {
	buf = appendCursorID(buf, o.Machine)
	buf = appendCursorID(buf, o.Target)
	buf = appendCursorID(buf, o.Created)
	if o.Observed {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// LoadCursor restores a frontier saved by SaveCursor. The receiver must be
// the same search (DFS, DPOR or DelayBounding) configured for the same
// worker shard the cursor was saved under; PrepareIteration then backtracks
// from the restored stack exactly as the uninterrupted run would have. A
// cursor SaveCursor cannot have written is refused, with the node that
// gives it away.
func (t *tree) LoadCursor(cursor []byte) error {
	r := cursorReader{buf: cursor}
	if v := r.byte(); v != cursorVersion {
		return fmt.Errorf("cursor version %d, this build reads version %d: the campaign was journaled by a build with another cursor format and must be finished by that build or started afresh", v, cursorVersion)
	}
	flags := r.byte()
	shard, shards := int(r.uvarint()), int(r.uvarint())
	if r.err == nil && (shard != t.shard || shards != t.shards) {
		return fmt.Errorf("cursor was saved for shard %d/%d, this worker is shard %d/%d", shard, shards, t.shard, t.shards)
	}
	if reduce, delay := flags&cursorReduce != 0, flags&cursorDelay != 0; r.err == nil && (reduce != t.reduce || delay != t.delay) {
		return fmt.Errorf("cursor was saved by a search with partial-order reduction %t and a delay bound %t, this one has them %t and %t", reduce, delay, t.reduce, t.delay)
	}
	loaded := tree{
		reduce: t.reduce, delay: t.delay, budget: t.budget, shard: t.shard, shards: t.shards, curSched: -1,
		jumped: flags&cursorJumped != 0, exhausted: flags&cursorExhausted != 0,
	}
	if t.delay { // SaveCursor writes no bound past the budget
		loaded.bound = int(min(r.uvarint(), uint64(t.budget)))
	}
	nodes := r.count("stack length")
	loaded.stack = make([]node, 0, nodes)
	for i := 0; i < nodes && r.err == nil; i++ {
		kind, options, idx := psharp.DecisionKind(r.byte()), r.uvarint(), r.uvarint()
		n := node{kind: kind, options: int32(options), idx: int32(idx)}
		switch {
		case r.err != nil:
		case kind > psharp.DecisionInt:
			return fmt.Errorf("cursor node %d has decision kind %d", i, kind)
		case idx >= options || options > math.MaxInt32:
			return fmt.Errorf("cursor node %d is on branch %d of %d", i, idx, options)
		case kind != psharp.DecisionSchedule:
		case options > uint64(len(r.buf)):
			return fmt.Errorf("cursor node %d has %d machines, more than the blob has bytes", i, options)
		default:
			n.machines = make([]psharp.MachineID, options)
			for j := range n.machines {
				n.machines[j] = r.id()
			}
			if !t.reduce {
				break
			}
			n.red = &reduction{flags: slices.Clone(r.bytes(len(n.machines)))}
			if slices.ContainsFunc(n.red.flags, func(f uint8) bool { return f > toExplore|explored }) {
				return fmt.Errorf("cursor node %d has branch flags %x", i, n.red.flags)
			}
			n.red.op = r.op()
			for j := r.count("explored branch count"); j > 0 && r.err == nil; j-- {
				n.red.done = append(n.red.done, r.op())
			}
		}
		loaded.stack = append(loaded.stack, n)
	}
	if r.err != nil {
		return r.err
	}
	if !bytes.Equal(loaded.SaveCursor(), cursor) {
		return errors.New("cursor is not in the form SaveCursor writes")
	}
	*t = loaded
	return nil
}

// cursorReader is a tiny error-latching decoder for cursor blobs.
type cursorReader struct {
	buf []byte
	err error
}

func (r *cursorReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf) {
		r.err = errors.New("truncated cursor")
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *cursorReader) byte() byte {
	if b := r.bytes(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

func (r *cursorReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = errors.New("truncated cursor")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// count reads the length of something whose elements each take a byte or
// more of what is left, so a hostile length cannot size an allocation.
func (r *cursorReader) count(what string) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)) {
		r.err = fmt.Errorf("cursor %s %d exceeds blob size", what, n)
		return 0
	}
	return int(n)
}

func (r *cursorReader) id() psharp.MachineID {
	return psharp.MachineID{Type: string(r.bytes(r.count("name length"))), Seq: r.uvarint()}
}

func (r *cursorReader) op() psharp.StepOp {
	return psharp.StepOp{Machine: r.id(), Target: r.id(), Created: r.id(), Observed: r.byte() != 0}
}
