package sct

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/psharp-go/psharp"
)

// DFS is the paper's systematic depth-first scheduler: the schedule space is
// a tree whose nodes are schedule prefixes and whose branches are the
// enabled machines (and, unlike the paper's P# DFS but as it prescribes for
// systematic exploration, the values of controlled nondeterministic
// choices). DFS explores a different schedule on every iteration and, given
// enough iterations and an acyclic state space, explores all of them; when
// the tree is exhausted PrepareIteration returns false.
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
type DFS struct {
	stack     []dfsNode
	pos       int
	exhausted bool

	shard  int
	shards int
	jumped bool // the post-probe root jump has happened
}

type dfsNode struct {
	kind     psharp.DecisionKind
	options  int
	idx      int
	machines []psharp.MachineID // schedule nodes only
}

// NewDFS returns a fresh depth-first strategy.
func NewDFS() *DFS { return &DFS{shards: 1} }

// CloneForWorker returns a DFS owning the root branches congruent to worker
// modulo workers; the clones jointly cover the whole schedule tree.
func (s *DFS) CloneForWorker(worker, workers int) Strategy {
	return &DFS{shard: worker, shards: workers}
}

// Exhausted reports whether the entire (depth-bounded) schedule tree has
// been explored.
func (s *DFS) Exhausted() bool { return s.exhausted }

// PrepareIteration advances to the next unexplored branch; it returns false
// once the whole tree has been visited.
func (s *DFS) PrepareIteration(iter int) bool {
	if s.exhausted {
		return false
	}
	if iter == 0 {
		s.pos = 0
		return true
	}
	if s.shards > 1 && !s.jumped {
		s.jumped = true
		if s.shard != 0 {
			// Discard the probe's subtree (it belongs to worker 0) and jump
			// the root decision into this shard's residue class.
			if len(s.stack) == 0 || s.shard >= s.stack[0].options {
				s.exhausted = true
				return false
			}
			root := s.stack[0]
			root.idx = s.shard
			s.stack = append(s.stack[:0], root)
			s.pos = 0
			return true
		}
	}
	// Backtrack: drop exhausted trailing nodes, then advance the deepest
	// node that still has unexplored branches. The root node advances by
	// the shard stride so a sharded clone stays in its residue class.
	for len(s.stack) > 0 {
		n := &s.stack[len(s.stack)-1]
		if len(s.stack) == 1 {
			n.idx += s.shards
		} else {
			n.idx++
		}
		if n.idx < n.options {
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

// NextMachine replays the current prefix and extends the tree with a new
// node at the frontier.
func (s *DFS) NextMachine(_ psharp.MachineID, enabled []psharp.MachineID) psharp.MachineID {
	if s.pos < len(s.stack) {
		n := &s.stack[s.pos]
		s.pos++
		if n.kind != psharp.DecisionSchedule {
			panic(fmt.Sprintf("sct: DFS replay divergence: expected %v node, got schedule point", n.kind))
		}
		if n.idx < len(n.machines) && contains(enabled, n.machines[n.idx]) {
			return n.machines[n.idx]
		}
		// The enabled set changed across replays: the program under test is
		// nondeterministic beyond its controlled choices.
		panic("sct: DFS replay divergence: enabled set changed; program has uncontrolled nondeterminism")
	}
	node := dfsNode{
		kind:     psharp.DecisionSchedule,
		options:  len(enabled),
		machines: append([]psharp.MachineID(nil), enabled...),
	}
	s.stack = append(s.stack, node)
	s.pos++
	return enabled[0]
}

// NextBool explores both boolean values systematically.
func (s *DFS) NextBool() bool {
	return s.choice(psharp.DecisionBool, 2) == 1
}

// NextInt explores all n values systematically.
func (s *DFS) NextInt(n int) int {
	return s.choice(psharp.DecisionInt, n)
}

func (s *DFS) choice(kind psharp.DecisionKind, n int) int {
	if s.pos < len(s.stack) {
		node := &s.stack[s.pos]
		s.pos++
		if node.kind != kind || node.options != n {
			panic("sct: DFS replay divergence on nondeterministic choice")
		}
		return node.idx
	}
	s.stack = append(s.stack, dfsNode{kind: kind, options: n})
	s.pos++
	return 0
}

// RepeatedPrefix implements psharp.PrefixResumer: every node below the one
// PrepareIteration just advanced keeps its branch, so the iteration repeats
// the previous one up to there — as far as prev is that iteration.
func (s *DFS) RepeatedPrefix(prev []psharp.Decision) int {
	k := min(len(s.stack)-1, len(prev))
	for i := 0; i < k; i++ {
		n := &s.stack[i]
		if !repeats(&prev[i], n.kind, n.idx, n.machines) {
			return i
		}
	}
	return max(k, 0)
}

// ResumeAt implements psharp.PrefixResumer.
func (s *DFS) ResumeAt(n int) { s.pos = n }

// repeats reports whether d is what a search-tree node of the given kind
// answers on its branch idx.
func repeats(d *psharp.Decision, kind psharp.DecisionKind, idx int, machines []psharp.MachineID) bool {
	if d.Kind != kind {
		return false
	}
	switch kind {
	case psharp.DecisionSchedule:
		return idx < len(machines) && machines[idx].Seq == d.Machine.Seq
	case psharp.DecisionBool:
		return d.Bool == (idx == 1)
	default:
		return d.Int == idx
	}
}

// dfsCursorVersion versions the DFS cursor blob layout inside journal
// cursor records.
const dfsCursorVersion = 1

// SaveCursor serializes the DFS frontier — the backtracking stack after
// the most recently completed iteration, plus the shard layout and the
// jumped/exhausted flags — implementing CursorStrategy. Unlike the
// reseeded strategies, DFS's position cannot be recomputed from an
// iteration index, so resumable campaigns journal the stack itself.
func (s *DFS) SaveCursor() []byte {
	buf := []byte{dfsCursorVersion}
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
		buf = binary.AppendUvarint(buf, uint64(len(n.machines)))
		for _, m := range n.machines {
			buf = binary.AppendUvarint(buf, uint64(len(m.Type)))
			buf = append(buf, m.Type...)
			buf = binary.AppendUvarint(buf, m.Seq)
		}
	}
	return buf
}

// LoadCursor restores a frontier saved by SaveCursor. The receiver must be
// configured for the same worker shard the cursor was saved under;
// PrepareIteration then backtracks from the restored stack exactly as the
// uninterrupted run would have.
func (s *DFS) LoadCursor(cursor []byte) error {
	r := cursorReader{buf: cursor}
	if v := r.byte(); v != dfsCursorVersion {
		return fmt.Errorf("unknown DFS cursor version %d", v)
	}
	flags := r.byte()
	shard, shards := int(r.uvarint()), int(r.uvarint())
	if r.err == nil && (shard != s.shard || shards != s.shards) {
		return fmt.Errorf("DFS cursor was saved for shard %d/%d, this worker is shard %d/%d", shard, shards, s.shard, s.shards)
	}
	nodes := int(r.uvarint())
	if r.err == nil && nodes > len(cursor) {
		return errors.New("DFS cursor stack length exceeds blob size")
	}
	stack := make([]dfsNode, 0, nodes)
	for i := 0; i < nodes && r.err == nil; i++ {
		n := dfsNode{
			kind:    psharp.DecisionKind(r.byte()),
			options: int(r.uvarint()),
			idx:     int(r.uvarint()),
		}
		machines := int(r.uvarint())
		if r.err == nil && machines > len(cursor) {
			return errors.New("DFS cursor machine count exceeds blob size")
		}
		for j := 0; j < machines && r.err == nil; j++ {
			n.machines = append(n.machines, psharp.MachineID{Type: r.string(), Seq: r.uvarint()})
		}
		stack = append(stack, n)
	}
	if r.err != nil {
		return r.err
	}
	s.stack = stack
	s.pos = 0
	s.jumped = flags&1 != 0
	s.exhausted = flags&2 != 0
	return nil
}

// cursorReader is a tiny error-latching decoder for cursor blobs.
type cursorReader struct {
	buf []byte
	err error
}

func (r *cursorReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.err = errors.New("truncated cursor")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
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

func (r *cursorReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)) {
		r.err = errors.New("truncated cursor")
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func contains(ids []psharp.MachineID, id psharp.MachineID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
