package analysis

import (
	"math/bits"

	"github.com/psharp-go/psharp/lang"
)

// bitset is a dense row of bits over one of a method's index spaces
// (variables, objects, positions, nodes); rows of one space have one length.
type bitset []uint64

func words(n int) int { return (n + 63) >> 6 }

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) unset(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }

// or joins other's leading len(b) words into b; reports change.
func (b bitset) or(other bitset) bool {
	changed := false
	for i := range b {
		if w := other[i]; w&^b[i] != 0 {
			b[i] |= w
			changed = true
		}
	}
	return changed
}

func (b bitset) intersects(other bitset) bool {
	for i, w := range b {
		if w&other[i] != 0 {
			return true
		}
	}
	return false
}

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// next returns the smallest member >= i, or -1. The loop
// for i := b.next(0); i >= 0; i = b.next(i + 1) visits the members in order.
func (b bitset) next(i int) int {
	for k := i >> 6; k < len(b); k++ {
		w := b[k]
		if k == i>>6 {
			w &= ^uint64(0) << (uint(i) & 63)
		}
		if w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// summary is a method's modular abstraction (the paper's taint summary plus
// the gives-up and writes sets), as bit rows over positions: 0 is the
// receiver, 1+i parameter i. Member insensitivity (paper Section 5.1: "we
// taint the whole object instead") means one position stands for the entire
// region reachable from it on entry. Summaries only ever grow.
type summary struct {
	np int // number of positions, 1+len(Params)
	// links holds np rows: row p lists the positions whose objects may
	// become reachable from position p's object after the call.
	links []uint64
	// ret lists the positions the return value may reach; retFresh says it
	// may be a fresh allocation.
	ret      bitset
	retFresh bool
	// givesUp marks the positions whose ownership the method transfers
	// away (Figure 5); the receiver is possible too.
	givesUp bitset
	// writes marks the positions whose object may have a field written
	// (transitively); used by the read-only extension.
	writes bitset
}

func (s *summary) linkRow(p int) bitset {
	pw := words(s.np)
	return s.links[p*pw : (p+1)*pw]
}

// methodAnalysis is one method as one analyzer solves it: the dense
// points-to state, the containment matrix, the summary, and the scratch
// rows of the solver and of the ownership check.
type methodAnalysis struct {
	method *Method
	sum    summary
	// callees is indexed by call site (node.site): the unit an evaluated
	// OpCall resolves to in this analyzer, nil for an unknown callee.
	callees []*methodAnalysis

	w      int // words per object row
	stride int // words per state: len(method.vars) * w
	// in holds the points-to state on entry to each node, node-major:
	// variable v at node id is in[id*stride+v*w:][:w]. Nodes the solver
	// never reaches keep all-zero states.
	in []uint64
	// out is the scratch state transfer writes.
	out []uint64
	// contains is the monotone containment relation over abstract objects
	// (member-insensitive heap edges): row o lists what o may contain.
	contains []uint64
	grew     bool // a containment edge was added since the solver last looked
	// dirty marks the nodes the solver still has to evaluate; the ownership
	// check reuses it, all false again, for its taint pass.
	dirty  []bool
	queued bool // in runFixpoint's worklist

	give, tmp, todo bitset // object rows: checkGiveUp's payload region, closures, closure's frontier

	// Taint rows (variable bits) of the ownership check, made on first use:
	// one per node, and the scratch row taintTransfer writes.
	taint    []uint64
	taintOut bitset
	giveVars []int32 // giveUpVarsAt's result
}

// pts returns variable v's points-to row in a state.
func (ma *methodAnalysis) pts(state []uint64, v int32) bitset {
	return state[int(v)*ma.w : (int(v)+1)*ma.w]
}

func (ma *methodAnalysis) inState(id int) []uint64 {
	return ma.in[id*ma.stride : (id+1)*ma.stride]
}

// closure closes an object row under containment, in place.
func (ma *methodAnalysis) closure(s bitset) {
	todo := ma.todo
	copy(todo, s)
	for o := todo.next(0); o >= 0; o = todo.next(0) {
		todo.unset(o)
		for k, c := range ma.contains[o*ma.w : (o+1)*ma.w] {
			fresh := c &^ s[k]
			s[k] |= fresh
			todo[k] |= fresh
		}
	}
}

// reachVarIn returns, in dst, the closure of v's points-to set on entry to
// node id; v < 0 (not a reference variable) reaches nothing.
func (ma *methodAnalysis) reachVarIn(dst bitset, id int, v int32) bitset {
	clear(dst)
	if v >= 0 {
		copy(dst, ma.pts(ma.inState(id), v))
		ma.closure(dst)
	}
	return dst
}

// contain makes every object of containers contain every object of
// contents (but not itself).
func (ma *methodAnalysis) contain(containers, contents bitset) {
	for o := containers.next(0); o >= 0; o = containers.next(o + 1) {
		row := ma.contains[o*ma.w : (o+1)*ma.w]
		for k, c := range contents {
			if k == o>>6 {
				c &^= 1 << (uint(o) & 63)
			}
			if c&^row[k] != 0 {
				row[k] |= c
				ma.grew = true
			}
		}
	}
}

// analyzer drives a summary fixpoint over a universe of methods.
type analyzer struct {
	prog *lang.Program
	lo   *lowerer
	// units is the universe calls resolve in, keyed by declaration.
	units map[*lang.MethodDecl]*methodAnalysis
	// order lists the units this analyzer solves. The base analyzer solves
	// all of units, class methods first (order[:classUnits]); a cross-state
	// analyzer solves one machine's methods and finds the class methods in
	// units already solved.
	order      []*methodAnalysis
	classUnits int
}

// add makes m a unit of the analyzer, with its state at the bottom of the
// lattice except for the entry node, and every reachable node to evaluate.
func (a *analyzer) add(m *Method) {
	nodes, np, w := len(m.nodes), 1+m.nparams, words(m.objs)
	pw := words(np)
	ma := &methodAnalysis{method: m, w: w, stride: len(m.vars) * w,
		callees: make([]*methodAnalysis, len(m.calls)), dirty: make([]bool, nodes)}
	slab := make([]uint64, (nodes+1)*ma.stride+(m.objs+3)*w+(np+3)*pw)
	carve := func(n int) []uint64 {
		s := slab[:n:n]
		slab = slab[n:]
		return s
	}
	ma.in, ma.out, ma.contains = carve(nodes*ma.stride), carve(ma.stride), carve(m.objs*w)
	ma.give, ma.tmp, ma.todo = carve(w), carve(w), carve(w)
	ma.sum = summary{np: np, links: carve(np * pw), ret: carve(pw), givesUp: carve(pw), writes: carve(pw)}

	entry := ma.inState(0)
	for v := range m.vars {
		if o := m.vars[v].entry; o >= 0 {
			ma.pts(entry, int32(v)).set(int(o))
		}
	}
	for id := range m.nodes {
		ma.dirty[id] = evaluated(id, &m.nodes[id])
	}
	if m.Decl != nil {
		a.units[m.Decl] = ma
	}
	a.order = append(a.order, ma)
}

// solve runs the flow-sensitive points-to pass of one method from its
// current state to the least fixpoint: dirty nodes are evaluated in sweeps
// over the node order (close to reverse postorder, since lowering numbers
// nodes in program order) until none is left.
func (ma *methodAnalysis) solve() {
	m := ma.method
	for again := true; again; {
		again = false
		for id := range m.nodes {
			if !ma.dirty[id] {
				continue
			}
			ma.dirty[id] = false
			n := &m.nodes[id]
			ma.transfer(id, n)
			if ma.grew {
				// OpLoad and OpCall read closures, which a new containment
				// edge can enlarge without any in-state changing.
				ma.grew = false
				for _, r := range m.readers {
					ma.dirty[r] = true
				}
				again = true
			}
			for _, s := range m.succs(n) {
				if bitset(ma.inState(int(s))).or(ma.out) {
					ma.dirty[s] = true
					again = again || int(s) <= id
				}
			}
		}
	}
}

// transfer applies one instruction to the node's in-state, leaving the
// out-state in ma.out.
func (ma *methodAnalysis) transfer(id int, x *node) {
	in, out := ma.inState(id), ma.out
	copy(out, in)
	switch x.op {
	case OpAssign, OpConst:
		if x.dst >= 0 {
			if x.src >= 0 {
				copy(ma.pts(out, x.dst), ma.pts(in, x.src))
			} else {
				clear(ma.pts(out, x.dst))
			}
		}
	case OpLoad:
		if x.dst >= 0 {
			// Member-insensitive: a field load yields the whole region
			// reachable from the receiver.
			dst := ma.pts(out, x.dst)
			copy(dst, ma.pts(in, this))
			ma.closure(dst)
		}
	case OpStore:
		if x.src >= 0 {
			ma.contain(ma.pts(in, this), ma.pts(in, x.src))
		}
	case OpNew:
		if x.dst >= 0 {
			dst := ma.pts(out, x.dst)
			clear(dst)
			dst.set(int(x.alloc))
		}
	case OpCall:
		ma.transferCall(id, x, in, out)
	}
	// OpSend, OpCreate: ownership transfer is checked separately; no
	// points-to effect (a machine handle is a scalar).
}

// transferCall applies a callee summary at a call site.
func (ma *methodAnalysis) transferCall(id int, x *node, in, out []uint64) {
	argv := ma.method.argv(x)
	var dst bitset
	if x.dst >= 0 {
		dst = ma.pts(out, x.dst)
		clear(dst)
	}
	callee := ma.callees[x.site]
	if callee == nil {
		// Unknown callee (paper Section 5.4: library calls are handled
		// conservatively — everything reachable becomes mutually reachable).
		all := ma.tmp
		clear(all)
		for _, v := range argv {
			if v >= 0 {
				all.or(ma.pts(in, v))
			}
		}
		ma.closure(all)
		ma.contain(all, all)
		if dst != nil {
			copy(dst, all)
			dst.set(int(x.alloc))
		}
		return
	}
	sum := &callee.sum
	for from := 0; from < sum.np; from++ {
		if argv[from] < 0 {
			continue
		}
		links := sum.linkRow(from)
		for to := links.next(0); to >= 0; to = links.next(to + 1) {
			ma.contain(ma.pts(in, argv[from]), ma.reachVarIn(ma.tmp, id, argv[to]))
		}
	}
	if dst != nil {
		for pos := sum.ret.next(0); pos >= 0; pos = sum.ret.next(pos + 1) {
			if v := argv[pos]; v >= 0 {
				dst.or(ma.pts(in, v))
			}
		}
		ma.closure(dst)
		if sum.retFresh {
			dst.set(int(x.alloc))
		}
	}
}

// updateSummary folds the solved state into the method's summary; reports
// whether it grew. A closed object row's first words, cut at np bits, are
// the positions it reaches: the receiver's and the parameters' entry
// objects are objects 0..np-1.
func (ma *methodAnalysis) updateSummary() bool {
	m, sum := ma.method, &ma.sum
	changed := false
	// mark joins the positions among objs into dst; objs is spent.
	mark := func(dst, objs bitset) {
		if r := uint(sum.np) & 63; r != 0 {
			objs[len(dst)-1] &= 1<<r - 1
		}
		if dst.or(objs) {
			changed = true
		}
	}

	// Links: position p reaches position q's entry object at exit.
	for p := 0; p < sum.np; p++ {
		clear(ma.tmp)
		ma.tmp.set(p)
		ma.closure(ma.tmp)
		ma.tmp.unset(p)
		mark(sum.linkRow(p), ma.tmp)
	}

	for id := range m.nodes {
		x := &m.nodes[id]
		switch x.op {
		case OpReturn:
			// Return sources.
			if x.src >= 0 {
				r := ma.reachVarIn(ma.tmp, id, x.src)
				// An object beyond the positions is an allocation site (or
				// a lifted field's region).
				if !sum.retFresh && r.next(sum.np) >= 0 {
					sum.retFresh, changed = true, true
				}
				mark(sum.ret, r)
			}
		case OpStore:
			// Writes: a field store writes this's region; calls propagate
			// callee writes onto whatever the written argument can reach.
			mark(sum.writes, ma.reachVarIn(ma.tmp, id, this))
		case OpCall:
			argv := m.argv(x)
			if callee := ma.callees[x.site]; callee == nil {
				// Unknown callee: assume it writes everything it can reach.
				for _, v := range argv {
					mark(sum.writes, ma.reachVarIn(ma.tmp, id, v))
				}
			} else {
				w := callee.sum.writes
				for pos := w.next(0); pos >= 0; pos = w.next(pos + 1) {
					mark(sum.writes, ma.reachVarIn(ma.tmp, id, argv[pos]))
				}
			}
		}
		// GivesUp (Figure 5): a send (or create, or call to a method that
		// gives up the corresponding formal) gives up every position whose
		// entry object is in the payload's reachable region.
		for _, gv := range ma.giveUpVarsAt(x) {
			mark(sum.givesUp, ma.reachVarIn(ma.tmp, id, gv))
		}
	}
	return changed
}

// giveUpVarsAt returns the reference variables whose ownership node n
// transfers away, in name order: the payload of a send/create, and every
// argument passed for a formal in the callee's give-up set (twice if it is
// passed for two). The result is valid until the next call.
func (ma *methodAnalysis) giveUpVarsAt(x *node) []int32 {
	out := ma.giveVars[:0]
	switch x.op {
	case OpSend, OpCreate:
		if x.src >= 0 {
			out = append(out, x.src)
		}
	case OpCall:
		callee := ma.callees[x.site]
		if callee == nil {
			return nil // unknown callees handled conservatively elsewhere
		}
		argv, g := ma.method.argv(x), callee.sum.givesUp
		for pos := g.next(0); pos >= 0; pos = g.next(pos + 1) {
			if v := argv[pos]; v >= 0 {
				// insertion sort: a call gives up a handful of arguments
				i := len(out)
				out = append(out, v)
				for ; i > 0 && out[i-1] != v && ma.method.nameLess(v, out[i-1]); i-- {
					out[i] = out[i-1]
				}
				out[i] = v
			}
		}
	}
	ma.giveVars = out
	return out
}

// runFixpoint solves the analyzer's units to a global fixpoint (methods may
// be mutually recursive; Figure 5's outer repeat loop), semi-naively: after
// the first pass a unit is solved again only when a callee's summary grew,
// and then only the call nodes bound to that callee are marked.
func (a *analyzer) runFixpoint() {
	callers := make(map[*methodAnalysis][]*methodAnalysis)
	for _, ma := range a.order {
		m := ma.method
		for _, id := range m.readers {
			n := &m.nodes[id]
			if n.op != OpCall {
				continue
			}
			callee := a.units[m.calls[n.site].decl]
			ma.callees[n.site] = callee
			if cs := callers[callee]; callee != nil && (len(cs) == 0 || cs[len(cs)-1] != ma) {
				callers[callee] = append(cs, ma)
			}
		}
		ma.queued = true
	}
	for work := append([]*methodAnalysis(nil), a.order...); len(work) > 0; work = work[1:] {
		ma := work[0]
		ma.queued = false
		ma.solve()
		if !ma.updateSummary() {
			continue
		}
		for _, c := range callers[ma] {
			for _, id := range c.method.readers {
				if n := &c.method.nodes[id]; n.op == OpCall && c.callees[n.site] == ma {
					c.dirty[id] = true
				}
			}
			if !c.queued {
				c.queued = true
				work = append(work, c)
			}
		}
	}
}
