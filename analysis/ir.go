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
// Every set the analysis manipulates is a row of bits over one of three
// index spaces, each interned once per lowered Method (Method.index):
//
//   - variables: "this" and the reference-typed parameters, locals, temps
//     and lifted fields, numbered in name order (so sorting indices sorts
//     names, which fixes the order violations are reported in);
//   - objects: 0 is the receiver's region, 1+i the region of parameter i,
//     then one region per lifted field (xSA), then one allocation site per
//     OpNew and OpCall node;
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
	"fmt"
	"sort"

	"github.com/psharp-go/psharp/lang"
)

// Op enumerates IR instruction kinds. Scalar computation is collapsed into
// OpConst (the analysis only tracks reference flow, as the paper's does),
// but reference variables consumed by scalar expressions are retained in
// Uses so the ownership conditions still see them as occurrences.
type Op int

// IR operations.
const (
	OpNop    Op = iota
	OpAssign    // Dst := Src
	OpConst     // Dst := <scalar or null>
	OpLoad      // Dst := this.Field
	OpStore     // this.Field := Src
	OpNew       // Dst := new Class
	OpCall      // Dst := Recv.Method(Args...)
	OpSend      // send Target, Event, Payload?
	OpCreate    // Dst := create MachineType(Payload?)
	OpReturn    // return Src?
	OpBranch    // branch on Src (scalar)
)

// Instr is one lowered instruction.
type Instr struct {
	Op     Op
	Dst    string
	Src    string
	Field  string
	Class  string
	Event  string
	Method string
	Recv   string
	Target string // send destination variable (machine-typed, scalar)
	Args   []string
	// Uses lists reference variables consumed by collapsed scalar
	// computation (e.g. comparisons against references).
	Uses []string
	Pos  lang.Pos
}

// String renders the instruction for diagnostics.
func (in Instr) String() string {
	switch in.Op {
	case OpAssign:
		return fmt.Sprintf("%s := %s", in.Dst, in.Src)
	case OpConst:
		return fmt.Sprintf("%s := <const>", in.Dst)
	case OpLoad:
		return fmt.Sprintf("%s := this.%s", in.Dst, in.Field)
	case OpStore:
		return fmt.Sprintf("this.%s := %s", in.Field, in.Src)
	case OpNew:
		return fmt.Sprintf("%s := new %s", in.Dst, in.Class)
	case OpCall:
		return fmt.Sprintf("%s := %s.%s(%v)", in.Dst, in.Recv, in.Method, in.Args)
	case OpSend:
		return fmt.Sprintf("send %s, %s, %s", in.Target, in.Event, in.Src)
	case OpCreate:
		return fmt.Sprintf("%s := create %s(%s)", in.Dst, in.Class, in.Src)
	case OpReturn:
		return fmt.Sprintf("return %s", in.Src)
	case OpBranch:
		return fmt.Sprintf("branch %s", in.Src)
	default:
		return "nop"
	}
}

// Node is a CFG node holding exactly one instruction.
type Node struct {
	ID    int
	Instr Instr
	Succs []*Node
	Preds []*Node
}

// CFG is a single-entry single-exit control-flow graph.
type CFG struct {
	Entry, Exit *Node
	Nodes       []*Node
}

// Method is the analyzable form of one method: its CFG plus variable
// classification.
type Method struct {
	Holder string // enclosing class or machine name
	Name   string
	Params []string
	// RefVar reports which variables (params, locals, temps) are
	// reference-typed; "this" is always a reference.
	RefVar map[string]bool
	CFG    *CFG
	Decl   *lang.MethodDecl

	// The dense index spaces (see the package comment), fixed by index once
	// lowering is complete and shared by every analyzer that solves the
	// method.
	vars     []string    // variable index -> name, sorted; includes "this"
	this     int         // index of "this" in vars
	entryObj []int       // per variable: the object it points to on entry, or -1
	objs     int         // number of abstract objects
	nodes    []nodeIndex // per node ID
	readers  []int       // IDs of the evaluated nodes whose transfer reads a closure (OpLoad, OpCall)
}

// evaluated reports whether the solver ever applies n's transfer function.
// A node other than the entry with no predecessor heads a chain of dead code
// (statements behind a return): it is never evaluated and passes nothing
// on, while the nodes behind it are evaluated, from the empty state.
func (m *Method) evaluated(n *Node) bool {
	return n == m.CFG.Entry || len(n.Preds) > 0
}

// nodeIndex is one node's operands resolved to variable indices; -1 stands
// for an operand that is absent or not a reference variable.
type nodeIndex struct {
	dst, src int
	// argv is an OpCall's receiver followed by its arguments, so that
	// argv[p] is the variable bound to position p of the callee's summary.
	argv []int
	// uses lists the reference variables the node reads (the paper's
	// vars(N) restricted to reference variables, minus the pure assignment
	// target: overwriting a variable is a kill, not a use): Src, the
	// receiver, the arguments, Instr.Uses, and "this" for loads and stores.
	uses   []int
	callee string // OpCall: the callee's "Holder.Name"
	alloc  int    // OpNew, OpCall: the node's allocation-site object
}

// index interns the method's variables and abstract objects and resolves
// every node's operands.
func (m *Method) index() {
	m.vars = []string{"this"}
	for v, ref := range m.RefVar {
		if ref {
			m.vars = append(m.vars, v)
		}
	}
	sort.Strings(m.vars)
	idx := make(map[string]int, len(m.vars))
	for i, v := range m.vars {
		idx[v] = i
	}
	of := func(v string) int {
		if i, ok := idx[v]; ok {
			return i
		}
		return -1
	}
	m.this = idx["this"]
	m.entryObj = make([]int, len(m.vars))
	for i := range m.entryObj {
		m.entryObj[i] = -1
	}
	m.entryObj[m.this] = 0
	for i, p := range m.Params {
		if v := of(p); v >= 0 {
			m.entryObj[v] = 1 + i
		}
	}
	m.objs = 1 + len(m.Params)
	// In xSA mode, machine-level field variables start as fresh unknown
	// regions (distinct abstract objects), modeling arbitrary prior state.
	for i, v := range m.vars {
		if v[0] == '$' {
			m.entryObj[i] = m.objs
			m.objs++
		}
	}
	m.nodes = make([]nodeIndex, len(m.CFG.Nodes))
	var arena []int // backs every argv and uses; earlier slices stay valid when it grows
	use := func(v string) {
		if i := of(v); i >= 0 {
			arena = append(arena, i)
		}
	}
	for _, n := range m.CFG.Nodes {
		ins, x := &n.Instr, &m.nodes[n.ID]
		x.dst, x.src = of(ins.Dst), of(ins.Src)
		start := len(arena)
		if ins.Op == OpCall {
			arena = append(arena, of(ins.Recv))
			for _, a := range ins.Args {
				arena = append(arena, of(a))
			}
			x.argv = arena[start:len(arena):len(arena)]
			x.callee = ins.Class + "." + ins.Method
			start = len(arena)
		}
		use(ins.Src)
		use(ins.Recv)
		for _, a := range ins.Args {
			use(a)
		}
		for _, u := range ins.Uses {
			use(u)
		}
		switch ins.Op {
		case OpLoad, OpStore:
			use("this")
		}
		x.uses = arena[start:len(arena):len(arena)]
		switch ins.Op {
		case OpNew, OpCall:
			x.alloc = m.objs
			m.objs++
		}
		if (ins.Op == OpLoad || ins.Op == OpCall) && m.evaluated(n) {
			m.readers = append(m.readers, n.ID)
		}
	}
}

// QName returns Holder.Name.
func (m *Method) QName() string { return m.Holder + "." + m.Name }

// IsRef classifies a variable of the method.
func (m *Method) IsRef(v string) bool {
	if v == "this" {
		return true
	}
	return m.RefVar[v]
}

// lowerer builds a Method from an AST method body.
type lowerer struct {
	prog   *lang.Program
	method *Method
	nodes  []*Node
	nextID int
	temps  int
	// lifted enables xSA mode: field accesses become assignments to
	// machine-level variables named "$<field>", with strong updates.
	lifted bool
	// prefix renames locals when inlining handler bodies into the
	// machine-level CFG.
	prefix string
}

func (lo *lowerer) newNode(in Instr) *Node {
	n := &Node{ID: lo.nextID, Instr: in}
	lo.nextID++
	lo.nodes = append(lo.nodes, n)
	return n
}

func link(from, to *Node) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (lo *lowerer) temp(ref bool) string {
	lo.temps++
	name := fmt.Sprintf("%%t%d", lo.temps)
	if lo.prefix != "" {
		name = lo.prefix + name
	}
	if ref {
		lo.method.RefVar[name] = true
	}
	return name
}

func (lo *lowerer) local(name string) string {
	if lo.prefix != "" {
		return lo.prefix + name
	}
	return name
}

// fieldVar names the machine-level variable standing for a field in xSA
// mode.
func fieldVar(field string) string { return "$" + field }

// chain is a partial CFG: a head node and the set of dangling exits.
type chain struct {
	head  *Node
	tails []*Node
}

func (lo *lowerer) seq(c *chain, n *Node) {
	if c.head == nil {
		c.head = n
		c.tails = []*Node{n}
		return
	}
	for _, t := range c.tails {
		link(t, n)
	}
	c.tails = []*Node{n}
}

func (lo *lowerer) append(c *chain, sub chain) {
	if sub.head == nil {
		return
	}
	if c.head == nil {
		*c = sub
		return
	}
	for _, t := range c.tails {
		link(t, sub.head)
	}
	c.tails = sub.tails
}

func declareLocals(stmts []lang.Stmt, lo *lowerer) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *lang.LocalDecl:
			if st.Decl.Type.IsRef() {
				lo.method.RefVar[lo.local(st.Decl.Name)] = true
			}
		case *lang.IfStmt:
			declareLocals(st.Then, lo)
			declareLocals(st.Else, lo)
		case *lang.WhileStmt:
			declareLocals(st.Body, lo)
		}
	}
}

func (lo *lowerer) lowerStmts(stmts []lang.Stmt) chain {
	var c chain
	for _, s := range stmts {
		lo.append(&c, lo.lowerStmt(s))
	}
	return c
}

func (lo *lowerer) lowerStmt(s lang.Stmt) chain {
	var c chain
	switch st := s.(type) {
	case *lang.LocalDecl:
		// declaration only; no instruction
	case *lang.AssignStmt:
		v, sub := lo.lowerExpr(st.Value)
		c = sub
		if st.ToField != "" {
			if lo.lifted {
				lo.method.RefVar[fieldVar(st.ToField)] = refType(lo.prog, lo.fieldType(st.ToField))
				lo.seq(&c, lo.newNode(Instr{Op: OpAssign, Dst: fieldVar(st.ToField), Src: v, Pos: st.Pos}))
			} else {
				lo.seq(&c, lo.newNode(Instr{Op: OpStore, Field: st.ToField, Src: v, Pos: st.Pos}))
			}
		} else {
			lo.seq(&c, lo.newNode(Instr{Op: OpAssign, Dst: lo.local(st.Target), Src: v, Pos: st.Pos}))
		}
	case *lang.ExprStmt:
		_, c = lo.lowerExpr(st.X)
	case *lang.SendStmt:
		dst, sub := lo.lowerExpr(st.Dst)
		c = sub
		payload := ""
		if st.Payload != nil {
			var psub chain
			payload, psub = lo.lowerExpr(st.Payload)
			lo.append(&c, psub)
		}
		lo.seq(&c, lo.newNode(Instr{Op: OpSend, Target: dst, Event: st.Event, Src: payload, Pos: st.Pos}))
	case *lang.RaiseStmt:
		// A raise delivers the payload to this machine itself; ownership is
		// retained, so the analysis treats it as a no-op over references.
		lo.seq(&c, lo.newNode(Instr{Op: OpNop, Pos: st.Pos}))
	case *lang.ReturnStmt:
		src := ""
		if st.Value != nil {
			var sub chain
			src, sub = lo.lowerExpr(st.Value)
			c = sub
		}
		lo.seq(&c, lo.newNode(Instr{Op: OpReturn, Src: src, Pos: st.Pos}))
		// Statements after a return are unreachable; cut the chain.
		c.tails = nil
	case *lang.IfStmt:
		cond, sub := lo.lowerExpr(st.Cond)
		c = sub
		branch := lo.newNode(Instr{Op: OpBranch, Src: cond, Uses: refUses(st.Cond, lo), Pos: st.Pos})
		lo.seq(&c, branch)
		then := lo.lowerStmts(st.Then)
		els := lo.lowerStmts(st.Else)
		join := lo.newNode(Instr{Op: OpNop, Pos: st.Pos})
		if then.head != nil {
			link(branch, then.head)
			for _, t := range then.tails {
				link(t, join)
			}
		} else {
			link(branch, join)
		}
		if els.head != nil {
			link(branch, els.head)
			for _, t := range els.tails {
				link(t, join)
			}
		} else {
			link(branch, join)
		}
		c.tails = []*Node{join}
	case *lang.WhileStmt:
		cond, sub := lo.lowerExpr(st.Cond)
		head := sub.head
		branch := lo.newNode(Instr{Op: OpBranch, Src: cond, Uses: refUses(st.Cond, lo), Pos: st.Pos})
		if head == nil {
			head = branch
			sub = chain{head: branch, tails: []*Node{branch}}
		} else {
			for _, t := range sub.tails {
				link(t, branch)
			}
		}
		body := lo.lowerStmts(st.Body)
		exit := lo.newNode(Instr{Op: OpNop, Pos: st.Pos})
		link(branch, exit)
		if body.head != nil {
			link(branch, body.head)
			for _, t := range body.tails {
				link(t, head)
			}
		} else {
			link(branch, head)
		}
		c = chain{head: head, tails: []*Node{exit}}
	case *lang.AssertStmt:
		cond, sub := lo.lowerExpr(st.Cond)
		c = sub
		lo.seq(&c, lo.newNode(Instr{Op: OpBranch, Src: cond, Uses: refUses(st.Cond, lo), Pos: st.Pos}))
	}
	return c
}

// refUses collects reference-typed variable/field reads inside a collapsed
// scalar expression, so ownership condition 3 still sees them as uses.
func refUses(e lang.Expr, lo *lowerer) []string {
	var out []string
	var walk func(lang.Expr)
	walk = func(e lang.Expr) {
		switch x := e.(type) {
		case *lang.VarRef:
			if x.TypeOf().IsRef() {
				out = append(out, lo.local(x.Name))
			}
		case *lang.UnaryExpr:
			walk(x.X)
		case *lang.BinaryExpr:
			walk(x.L)
			walk(x.R)
		}
	}
	walk(e)
	return out
}

func refType(prog *lang.Program, t lang.Type) bool { return t.IsRef() }

func (lo *lowerer) fieldType(name string) lang.Type {
	if md, ok := lo.prog.MachineByName[lo.method.Holder]; ok {
		if f, ok := md.FieldByName[name]; ok {
			return f.Type
		}
	}
	if cd, ok := lo.prog.ClassByName[lo.method.Holder]; ok {
		if f, ok := cd.FieldByName[name]; ok {
			return f.Type
		}
	}
	return lang.Type{Name: "int"}
}

// lowerExpr lowers an expression, returning the variable holding its value
// ("" for void calls) and the evaluation chain.
func (lo *lowerer) lowerExpr(e lang.Expr) (string, chain) {
	var c chain
	switch x := e.(type) {
	case *lang.IntLit, *lang.BoolLit:
		t := lo.temp(false)
		lo.seq(&c, lo.newNode(Instr{Op: OpConst, Dst: t}))
		return t, c
	case *lang.NullLit:
		t := lo.temp(true)
		lo.seq(&c, lo.newNode(Instr{Op: OpConst, Dst: t, Pos: x.Pos}))
		return t, c
	case *lang.VarRef:
		return lo.local(x.Name), c
	case *lang.ThisRef:
		return "this", c
	case *lang.FieldRef:
		t := lo.temp(x.TypeOf().IsRef())
		if lo.lifted {
			lo.method.RefVar[fieldVar(x.Field)] = x.TypeOf().IsRef()
			lo.seq(&c, lo.newNode(Instr{Op: OpAssign, Dst: t, Src: fieldVar(x.Field), Pos: x.Pos}))
		} else {
			lo.seq(&c, lo.newNode(Instr{Op: OpLoad, Dst: t, Field: x.Field, Pos: x.Pos}))
		}
		return t, c
	case *lang.NewExpr:
		t := lo.temp(true)
		lo.seq(&c, lo.newNode(Instr{Op: OpNew, Dst: t, Class: x.Class, Pos: x.Pos}))
		return t, c
	case *lang.CreateExpr:
		payload := ""
		if x.Payload != nil {
			var sub chain
			payload, sub = lo.lowerExpr(x.Payload)
			lo.append(&c, sub)
		}
		t := lo.temp(false) // machine handles are scalar
		lo.seq(&c, lo.newNode(Instr{Op: OpCreate, Dst: t, Class: x.Machine, Src: payload, Pos: x.Pos}))
		return t, c
	case *lang.CallExpr:
		recv, sub := lo.lowerExpr(x.Recv)
		c = sub
		args := make([]string, 0, len(x.Args))
		for _, a := range x.Args {
			av, asub := lo.lowerExpr(a)
			lo.append(&c, asub)
			args = append(args, av)
		}
		dst := ""
		if x.TypeOf().Name != "void" {
			dst = lo.temp(x.TypeOf().IsRef())
		}
		recvType := x.Recv.TypeOf().Name
		lo.seq(&c, lo.newNode(Instr{
			Op: OpCall, Dst: dst, Recv: recv, Class: recvType, Method: x.Method,
			Args: args, Pos: x.Pos,
		}))
		return dst, c
	case *lang.UnaryExpr, *lang.BinaryExpr:
		// Scalar computation collapses; keep reference uses visible.
		t := lo.temp(false)
		lo.seq(&c, lo.newNode(Instr{Op: OpConst, Dst: t, Uses: refUses(e, lo)}))
		return t, c
	}
	t := lo.temp(false)
	lo.seq(&c, lo.newNode(Instr{Op: OpConst, Dst: t}))
	return t, c
}

// BuildMethod lowers one method to its CFG form.
func BuildMethod(prog *lang.Program, holderName string, decl *lang.MethodDecl) *Method {
	m := &Method{Holder: holderName, Name: decl.Name, RefVar: make(map[string]bool)}
	for _, p := range decl.Params {
		m.Params = append(m.Params, p.Name)
	}
	m.Decl = decl
	lo := &lowerer{prog: prog, method: m}
	entry := lo.newNode(Instr{Op: OpNop, Pos: decl.Pos})
	body := lowerMethodInto(lo, decl)
	exit := lo.newNode(Instr{Op: OpNop, Pos: decl.Pos})
	link(entry, body.head)
	for _, t := range body.tails {
		link(t, exit)
	}
	// Returns jump straight to exit.
	for _, n := range lo.nodes {
		if n.Instr.Op == OpReturn && len(n.Succs) == 0 && n != exit {
			link(n, exit)
		}
	}
	m.CFG = &CFG{Entry: entry, Exit: exit, Nodes: lo.nodes}
	m.index()
	return m
}

func lowerMethodInto(lo *lowerer, decl *lang.MethodDecl) chain {
	for _, p := range decl.Params {
		if p.Type.IsRef() {
			lo.method.RefVar[lo.local(p.Name)] = true
		}
	}
	declareLocals(decl.Body, lo)
	body := lo.lowerStmts(decl.Body)
	if body.head == nil {
		n := lo.newNode(Instr{Op: OpNop, Pos: decl.Pos})
		body = chain{head: n, tails: []*Node{n}}
	}
	return body
}
