// Package analysis implements the paper's sound static data-race analysis
// (Section 5): an ownership-based check built on a heap-overlap analysis.
//
// Methods are lowered to a 3-address intermediate form and a single-entry
// single-exit control-flow graph (the paper's Assumptions). Heap overlap
// (may_overlap, Section 5.1) is a flow-sensitive symbolic reachability
// analysis over abstract objects — allocation sites, parameter entry
// objects and the receiver — with member-insensitive containment edges,
// made method-modular by summaries (the paper's taint summaries). On top of
// it sit the gives-up interprocedural fixpoint (Figure 5), the
// respects-ownership conditions 1-3 (Section 5.3), the cross-state analysis
// xSA (Section 5.4), and the read-only extension (Section 8 future work).
//
// # The dense domain
//
// Lowering happens once, straight into the index spaces the solver works
// in. lang.Check has already resolved every variable, field and call to its
// declaration, so the lowerer looks no name up: it interns a parameter,
// local, temp or lifted field as a small integer when it is declared and
// emits flat nodes whose operands are those integers (node, Method in this
// file; the cross-state CFG of xsa.go goes through the same emitter, which
// tells the locals and temps of each inlined body apart by a copy number).
// A variable's name — "b", "%t3", "$field", "h4$b" — is spelled only when a
// violation reports it, and compared only where the report order depends on
// it (a call that gives up several arguments lists them in name order).
// Every set the analysis manipulates is a row of bits over one of three
// spaces:
//
//   - variables: 0 is "this", then the reference-typed parameters, locals,
//     temps and lifted fields in the order lowering met them;
//   - objects: 0 is the receiver's region, 1+i the region of parameter i,
//     then one region per lifted field (xSA, in field-name order), then one
//     allocation site per OpNew and OpCall node;
//   - positions, in summaries: 0 is the receiver, 1+i parameter i — the
//     callee's object indices below 1+len(Params), so a closed object row
//     masked to its first words is already a set of positions.
//
// A method's points-to state is one slab of node × variable rows of object
// bits holding only the state on entry to each node; out-states are
// recomputed into a scratch row and joined into the successors. Containment
// is an object × object bit matrix and reach is its bit closure. Taint sets
// of the ownership check are one row of variable bits per node.
//
// # Why the order of evaluation does not matter
//
// Everything is a least fixpoint of monotone functions over finite
// lattices: a transfer function's output only grows when its in-state, the
// containment matrix or a callee's summary grows; containment edges are
// only added; summaries only accumulate. Any fair evaluation order
// therefore reaches the same solution as the naive one (every method from
// nothing, round after round, until a quiet round — kept as the test-only
// oracle in reference_test.go). The solver uses that freedom twice. Within
// a method, nodes are re-evaluated only when their in-state changed, plus
// the OpLoad and OpCall nodes (the ones that read a closure) whenever
// containment grew. Across methods, a method is solved again only when the
// summary of one of its callees grew, and then from the state it already
// reached with just the affected call nodes marked, not from nothing. The
// per-machine xSA analyzers take the class methods' lowered forms and
// converged summaries from the base analyzer as they are: a class method
// can only call class methods (lang/check.go resolves a call by the
// receiver's static type), so nothing a machine's cross-state CFG adds can
// move them.
package analysis

import (
	"slices"
	"strconv"
	"strings"

	"github.com/psharp-go/psharp/lang"
)

// Op enumerates IR instruction kinds. Scalar computation is collapsed into
// OpConst (the analysis only tracks reference flow, as the paper's does),
// but reference variables consumed by scalar expressions are retained in
// the node's uses so the ownership conditions still see them as occurrences.
type Op uint8

// IR operations.
const (
	OpNop    Op = iota
	OpAssign    // dst := src
	OpConst     // dst := <scalar or null>
	OpLoad      // dst := this.<field>
	OpStore     // this.<field> := src
	OpNew       // dst := new <class>
	OpCall      // dst := argv[0].<callee>(argv[1:]...)
	OpSend      // send <machine>, event, src?
	OpCreate    // dst := create <machine>(src?)
	OpReturn    // return src?
	OpBranch    // branch on a scalar
)

// span is a run of Method.refs.
type span struct{ off, n int32 }

// node is one lowered instruction and its CFG edges. Operands are variable
// indices, -1 for one that is absent or not a reference variable; what a
// scalar operand was is not kept, the analysis never asks.
type node struct {
	op  Op
	fan bool // a state hub: succ bounds its successors in Method.fanout
	// nsucc counts the successors in succ; only a hub has more than two.
	nsucc int8
	succ  [2]int32
	preds int32 // incoming edges; who they come from is never asked
	line  int32
	col   int32
	dst   int32
	src   int32
	// uses lists the reference variables the node reads (the paper's
	// vars(N) restricted to reference variables, minus the pure assignment
	// target: overwriting a variable is a kill, not a use): src, the
	// receiver and the arguments, the variables a collapsed scalar
	// expression compares, and "this" for loads and stores.
	uses  span
	site  int32 // OpCall: an index into Method.calls; OpSend: into Method.events
	alloc int32 // OpNew, OpCall: the node's allocation-site object
}

func (n *node) pos() lang.Pos { return lang.Pos{Line: int(n.line), Col: int(n.col)} }

// callSite is what an OpCall calls and with what: argv is the receiver
// followed by the arguments, so that argv[p] is the variable bound to
// position p of the callee's summary.
type callSite struct {
	decl *lang.MethodDecl
	argv span
}

// variable is one reference variable of a method. Its name is spelled out
// only when a violation reports it.
type variable struct {
	name   string // as declared; a lifted field's name; "" for a temp
	copy   int32  // cross-state CFG: the inlined body it belongs to, from 1
	temp   int32  // a temp's number, from 1
	lifted bool   // a machine field lifted to a variable (xSA)
	entry  int32  // the object it points to on entry, or -1
}

// appendName spells the variable: "b", "%t3", "$field", and "h4$b" or
// "h4$%t3" inside the fourth body inlined into a cross-state CFG.
func (v *variable) appendName(b []byte) []byte {
	if v.lifted {
		return append(append(b, '$'), v.name...)
	}
	if v.copy > 0 {
		b = append(strconv.AppendInt(append(b, 'h'), int64(v.copy), 10), '$')
	}
	if v.temp > 0 {
		return strconv.AppendInt(append(b, "%t"...), int64(v.temp), 10)
	}
	return append(b, v.name...)
}

// Method is the analyzable form of one method, or of one machine's
// cross-state CFG: a single-entry single-exit graph of nodes in program
// order (node 0 is the entry, lowering numbers the rest as it meets them)
// over the dense index spaces of the package comment. It is immutable once
// lowered and shared by every analyzer that solves it.
type Method struct {
	Holder  string           // enclosing class or machine name
	Name    string           // "$entry_<state>" for an entry block, "$machine" for a cross-state CFG
	Decl    *lang.MethodDecl // nil for a cross-state CFG
	nparams int

	nodes   []node
	vars    []variable // variable 0 is "this"
	refs    []int32    // backs every argv and uses
	calls   []callSite
	events  []string
	fanout  []int32 // the hubs' successors
	readers []int32 // the evaluated nodes whose transfer reads a closure (OpLoad, OpCall)
	objs    int     // number of abstract objects
}

const this = 0 // the receiver's variable index

func (m *Method) list(s span) []int32 { return m.refs[s.off : s.off+s.n] }

func (m *Method) argv(call *node) []int32 { return m.list(m.calls[call.site].argv) }

func (m *Method) succs(n *node) []int32 {
	if n.fan {
		return m.fanout[n.succ[0]:n.succ[1]]
	}
	return n.succ[:n.nsucc]
}

// evaluated reports whether the solver ever applies the node's transfer
// function. A node other than the entry with no predecessor heads a chain
// of dead code (statements behind a return): it is never evaluated and
// passes nothing on, while the nodes behind it are evaluated, from the
// empty state.
func evaluated(id int, n *node) bool { return id == 0 || n.preds > 0 }

// varName spells variable v.
func (m *Method) varName(v int32) string {
	if x := &m.vars[v]; x.lifted || x.copy > 0 || x.temp > 0 {
		return string(x.appendName(nil))
	}
	return m.vars[v].name
}

// nameLess orders two variables as their names sort.
func (m *Method) nameLess(a, b int32) bool {
	var ba, bb [48]byte
	return string(m.vars[a].appendName(ba[:0])) < string(m.vars[b].appendName(bb[:0]))
}

// chain is a partial CFG: its first node and the one node control leaves it
// from; -1 stands for none (an empty chain, an exit cut by a return).
type chain struct{ head, tail int32 }

var empty = chain{-1, -1}

// lowerer lowers method bodies into Methods. It interns a variable when it
// is declared and emits nodes whose operands are already indices; one
// lowerer serves every method of a program, so the buffers a Method is cut
// from are grown once.
type lowerer struct {
	m      *Method
	nodes  []node
	vars   []variable
	refs   []int32
	calls  []callSite
	events []string
	fanout []int32

	slots []int32 // the body being lowered: VarDecl.Index -> variable
	args  []int32 // stack of the call arguments being lowered
	temps int32
	// lifted marks a cross-state CFG (xSA): field accesses become strongly
	// updated assignments to one variable per field, interned in fields
	// (by the field's VarDecl.Index) when first met, and every inlined body
	// gets a copy number of its own for its locals and temps.
	lifted bool
	fields []int32
	copy   int32
}

func (lo *lowerer) begin(m *Method, lifted bool) {
	lo.m, lo.lifted, lo.temps, lo.copy = m, lifted, 0, 0
	lo.nodes, lo.refs, lo.calls, lo.events, lo.fanout = lo.nodes[:0], lo.refs[:0], lo.calls[:0], lo.events[:0], lo.fanout[:0]
	lo.vars = append(lo.vars[:0], variable{name: "this", entry: 0})
}

// bind interns the reference variables of one body's frame.
func (lo *lowerer) bind(decl *lang.MethodDecl) {
	lo.slots = lo.slots[:0]
	for _, d := range decl.Vars {
		v := int32(-1)
		if d.Type.IsRef() {
			v = lo.newVar(variable{name: d.Name, copy: lo.copy, entry: -1})
		}
		lo.slots = append(lo.slots, v)
	}
}

func (lo *lowerer) newVar(v variable) int32 {
	lo.vars = append(lo.vars, v)
	return int32(len(lo.vars) - 1)
}

// temp numbers a fresh temporary, and interns it if it holds a reference.
func (lo *lowerer) temp(ref bool) int32 {
	lo.temps++
	if !ref {
		return -1
	}
	return lo.newVar(variable{copy: lo.copy, temp: lo.temps, entry: -1})
}

// field returns the variable a field is lifted to.
func (lo *lowerer) field(d *lang.VarDecl) int32 {
	if !d.Type.IsRef() {
		return -1
	}
	if lo.fields[d.Index] < 0 {
		lo.fields[d.Index] = lo.newVar(variable{name: d.Name, lifted: true})
	}
	return lo.fields[d.Index]
}

// emit appends a node, behind c if c is given.
func (lo *lowerer) emit(c *chain, op Op, pos lang.Pos, dst, src int32, uses span) int32 {
	id := int32(len(lo.nodes))
	lo.nodes = append(lo.nodes, node{op: op, line: int32(pos.Line), col: int32(pos.Col), dst: dst, src: src, uses: uses})
	if c != nil {
		lo.append(c, chain{id, id})
	}
	return id
}

func (lo *lowerer) link(from, to int32) {
	n := &lo.nodes[from]
	n.succ[n.nsucc] = to
	n.nsucc++
	lo.nodes[to].preds++
}

func (lo *lowerer) append(c *chain, sub chain) {
	switch {
	case sub.head < 0:
	case c.head < 0:
		*c = sub
	default:
		if c.tail >= 0 {
			lo.link(c.tail, sub.head)
		}
		c.tail = sub.tail
	}
}

// since is the run of refs pushed since there were off of them.
func (lo *lowerer) since(off int) span { return span{int32(off), int32(len(lo.refs) - off)} }

// usesOf records the reference variables among vs as one node's uses.
func (lo *lowerer) usesOf(vs ...int32) span {
	off := len(lo.refs)
	for _, v := range vs {
		if v >= 0 {
			lo.refs = append(lo.refs, v)
		}
	}
	return lo.since(off)
}

// refUses records the reference variables read inside a collapsed scalar
// expression, so ownership condition 3 still sees them as uses.
func (lo *lowerer) refUses(e lang.Expr) span {
	off := len(lo.refs)
	lo.pushRefUses(e)
	return lo.since(off)
}

func (lo *lowerer) pushRefUses(e lang.Expr) {
	switch x := e.(type) {
	case *lang.VarRef:
		if v := lo.slots[x.Decl.Index]; v >= 0 {
			lo.refs = append(lo.refs, v)
		}
	case *lang.UnaryExpr:
		lo.pushRefUses(x.X)
	case *lang.BinaryExpr:
		lo.pushRefUses(x.L)
		lo.pushRefUses(x.R)
	}
}

func (lo *lowerer) lowerStmts(stmts []lang.Stmt) chain {
	c := empty
	for _, s := range stmts {
		lo.append(&c, lo.lowerStmt(s))
	}
	return c
}

// lowerCond lowers a condition and the branch on it.
func (lo *lowerer) lowerCond(cond lang.Expr, pos lang.Pos) (c chain, branch int32) {
	_, c = lo.lowerExpr(cond)
	return c, lo.emit(&c, OpBranch, pos, -1, -1, lo.refUses(cond))
}

func (lo *lowerer) lowerStmt(s lang.Stmt) chain {
	c := empty
	switch st := s.(type) {
	case *lang.LocalDecl:
		// declaration only; no instruction
	case *lang.AssignStmt:
		var v int32
		v, c = lo.lowerExpr(st.Value)
		switch {
		case st.ToField == "":
			lo.emit(&c, OpAssign, st.Pos, lo.slots[st.Decl.Index], v, lo.usesOf(v))
		case lo.lifted:
			lo.emit(&c, OpAssign, st.Pos, lo.field(st.Decl), v, lo.usesOf(v))
		default:
			lo.emit(&c, OpStore, st.Pos, -1, v, lo.usesOf(v, this))
		}
	case *lang.ExprStmt:
		_, c = lo.lowerExpr(st.X)
	case *lang.SendStmt:
		_, c = lo.lowerExpr(st.Dst) // a machine handle is a scalar
		payload := int32(-1)
		if st.Payload != nil {
			var sub chain
			payload, sub = lo.lowerExpr(st.Payload)
			lo.append(&c, sub)
		}
		send := lo.emit(&c, OpSend, st.Pos, -1, payload, lo.usesOf(payload))
		lo.nodes[send].site = int32(len(lo.events))
		lo.events = append(lo.events, st.Event)
	case *lang.RaiseStmt:
		// A raise delivers the payload to this machine itself; ownership is
		// retained, so the analysis treats it as a no-op over references.
		lo.emit(&c, OpNop, st.Pos, -1, -1, span{})
	case *lang.ReturnStmt:
		src := int32(-1)
		if st.Value != nil {
			src, c = lo.lowerExpr(st.Value)
		}
		lo.emit(&c, OpReturn, st.Pos, -1, src, lo.usesOf(src))
		// Statements after a return are unreachable; cut the chain.
		c.tail = -1
	case *lang.IfStmt:
		var branch int32
		c, branch = lo.lowerCond(st.Cond, st.Pos)
		then := lo.lowerStmts(st.Then)
		els := lo.lowerStmts(st.Else)
		join := lo.emit(nil, OpNop, st.Pos, -1, -1, span{})
		for _, arm := range [2]chain{then, els} {
			if arm.head < 0 {
				lo.link(branch, join)
				continue
			}
			lo.link(branch, arm.head)
			if arm.tail >= 0 {
				lo.link(arm.tail, join)
			}
		}
		c.tail = join
	case *lang.WhileStmt:
		var branch int32
		c, branch = lo.lowerCond(st.Cond, st.Pos)
		body := lo.lowerStmts(st.Body)
		exit := lo.emit(nil, OpNop, st.Pos, -1, -1, span{})
		lo.link(branch, exit)
		if body.head < 0 {
			body = chain{c.head, -1} // an empty body loops straight back
		}
		lo.link(branch, body.head)
		if body.tail >= 0 {
			lo.link(body.tail, c.head)
		}
		c.tail = exit
	case *lang.AssertStmt:
		c, _ = lo.lowerCond(st.Cond, st.Pos)
	}
	return c
}

// lowerExpr lowers an expression, returning the variable holding its value
// (-1 for a scalar or no value) and the evaluation chain.
func (lo *lowerer) lowerExpr(e lang.Expr) (int32, chain) {
	c := empty
	switch x := e.(type) {
	case *lang.NullLit:
		t := lo.temp(true)
		lo.emit(&c, OpConst, x.Pos, t, -1, span{})
		return t, c
	case *lang.VarRef:
		return lo.slots[x.Decl.Index], c
	case *lang.ThisRef:
		return this, c
	case *lang.FieldRef:
		t := lo.temp(x.TypeOf().IsRef())
		if lo.lifted {
			f := lo.field(x.Decl)
			lo.emit(&c, OpAssign, x.Pos, t, f, lo.usesOf(f))
		} else {
			lo.emit(&c, OpLoad, x.Pos, t, -1, lo.usesOf(this))
		}
		return t, c
	case *lang.NewExpr:
		t := lo.temp(true)
		lo.emit(&c, OpNew, x.Pos, t, -1, span{})
		return t, c
	case *lang.CreateExpr:
		payload := int32(-1)
		if x.Payload != nil {
			payload, c = lo.lowerExpr(x.Payload)
		}
		lo.temp(false) // machine handles are scalar
		lo.emit(&c, OpCreate, x.Pos, -1, payload, lo.usesOf(payload))
		return -1, c
	case *lang.CallExpr:
		base := len(lo.args)
		var recv int32
		recv, c = lo.lowerExpr(x.Recv)
		lo.args = append(lo.args, recv)
		for _, a := range x.Args {
			av, sub := lo.lowerExpr(a)
			lo.append(&c, sub)
			lo.args = append(lo.args, av)
		}
		dst := int32(-1)
		if x.TypeOf().Name != "void" {
			dst = lo.temp(x.TypeOf().IsRef())
		}
		off := len(lo.refs)
		lo.refs = append(lo.refs, lo.args[base:]...)
		argv := lo.since(off)
		call := lo.emit(&c, OpCall, x.Pos, dst, -1, lo.usesOf(lo.args[base:]...))
		lo.args = lo.args[:base]
		lo.nodes[call].site = int32(len(lo.calls))
		lo.calls = append(lo.calls, callSite{x.Decl, argv})
		return dst, c
	case *lang.UnaryExpr, *lang.BinaryExpr:
		// Scalar computation collapses; keep reference uses visible.
		lo.temp(false)
		lo.emit(&c, OpConst, lang.Pos{}, -1, -1, lo.refUses(e))
		return -1, c
	}
	lo.temp(false) // an integer or boolean literal
	lo.emit(&c, OpConst, lang.Pos{}, -1, -1, span{})
	return -1, c
}

// linkReturns sends the returns among nodes [from, to) that lead nowhere
// yet on to next.
func (lo *lowerer) linkReturns(from, to int, next int32) {
	for id := from; id < to; id++ {
		if n := &lo.nodes[id]; n.op == OpReturn && n.nsucc == 0 {
			lo.link(int32(id), next)
		}
	}
}

// method lowers one method to its CFG form.
func (lo *lowerer) method(holder string, decl *lang.MethodDecl) *Method {
	lo.begin(&Method{Holder: holder, Name: decl.Name, Decl: decl, nparams: len(decl.Params)}, false)
	lo.bind(decl)
	for i := range decl.Params {
		if v := lo.slots[i]; v >= 0 {
			lo.vars[v].entry = int32(1 + i)
		}
	}
	entry := lo.emit(nil, OpNop, decl.Pos, -1, -1, span{})
	body := lo.lowerStmts(decl.Body)
	if body.head < 0 {
		lo.emit(&body, OpNop, decl.Pos, -1, -1, span{})
	}
	exit := lo.emit(nil, OpNop, decl.Pos, -1, -1, span{})
	lo.link(entry, body.head)
	if body.tail >= 0 {
		lo.link(body.tail, exit)
	}
	lo.linkReturns(0, int(exit), exit)
	return lo.finish()
}

// finish numbers the abstract objects, collects the readers and cuts the
// Method out of the lowerer's buffers.
func (lo *lowerer) finish() *Method {
	m := lo.m
	m.objs = 1 + m.nparams
	if lo.lifted {
		// Machine-level field variables start as fresh unknown regions
		// (distinct abstract objects, in name order), modeling arbitrary
		// prior state.
		lifted := lo.args[:0] // the argument stack is empty between calls
		for v := range lo.vars {
			if lo.vars[v].lifted {
				lifted = append(lifted, int32(v))
			}
		}
		slices.SortFunc(lifted, func(a, b int32) int { return strings.Compare(lo.vars[a].name, lo.vars[b].name) })
		for _, v := range lifted {
			lo.vars[v].entry = int32(m.objs)
			m.objs++
		}
		lo.args = lifted[:0]
	}
	nrefs := len(lo.refs) // the readers go behind them
	for id := range lo.nodes {
		n := &lo.nodes[id]
		if n.op == OpNew || n.op == OpCall {
			n.alloc = int32(m.objs)
			m.objs++
		}
		if (n.op == OpLoad || n.op == OpCall) && evaluated(id, n) {
			lo.refs = append(lo.refs, int32(id))
		}
	}
	m.nodes, m.vars = slices.Clone(lo.nodes), slices.Clone(lo.vars)
	m.calls, m.events = slices.Clone(lo.calls), slices.Clone(lo.events)
	ints, n := slices.Concat(lo.refs, lo.fanout), len(lo.refs)
	m.refs, m.readers, m.fanout = ints[:nrefs:nrefs], ints[nrefs:n:n], ints[n:]
	return m
}
