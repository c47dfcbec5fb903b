package analysis

// The reference engine: the map-of-maps abstract domain and the naive
// solver the dense implementation in reach.go and ownership.go replaced,
// and behind them the string-operand lowering (refInstr, refNode, refCFG,
// refLowerer, RefVar, refIndex) the integer IR of ir.go replaced, both kept
// verbatim (identifiers prefixed ref) as a test-only oracle. Every method is
// re-solved from nothing by chaotic iteration on every round of the summary
// loop until a round changes no summary; points-to states are
// map[string]map[refObj]bool cloned at every transfer; every xSA pass lowers
// and solves every class method again. It shares nothing but Op, Violation
// and Result with the code under test. FuzzAnalyzeDifferential holds the two
// to the same Result and give-up map on any program that parses and checks;
// TestLoweringDifferential (lowering_test.go) holds the two lowerings to the
// same per-node tables.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/psharp-go/psharp/lang"
)

// refInstr is one lowered instruction.
type refInstr struct {
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
func (in refInstr) String() string {
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

// refNode is a CFG node holding exactly one instruction.
type refNode struct {
	ID    int
	Instr refInstr
	Succs []*refNode
	Preds []*refNode
}

// refCFG is a single-entry single-exit control-flow graph.
type refCFG struct {
	Entry, Exit *refNode
	Nodes       []*refNode
}

// refMethod is the analyzable form of one method: its CFG plus variable
// classification.
type refMethod struct {
	Holder string // enclosing class or machine name
	Name   string
	Params []string
	// RefVar reports which variables (params, locals, temps) are
	// reference-typed; "this" is always a reference.
	RefVar map[string]bool
	CFG    *refCFG
	Decl   *lang.MethodDecl

	// The dense index spaces (see the package comment), fixed by refIndex once
	// lowering is complete and shared by every analyzer that solves the
	// method.
	vars     []string       // variable index -> name, sorted; includes "this"
	this     int            // index of "this" in vars
	entryObj []int          // per variable: the object it points to on entry, or -1
	objs     int            // number of abstract objects
	nodes    []refNodeIndex // per node ID
	readers  []int          // IDs of the evaluated nodes whose transfer reads a closure (OpLoad, OpCall)
}

// evaluated reports whether the solver ever applies n's transfer function.
// A node other than the entry with no predecessor heads a chain of dead code
// (statements behind a return): it is never evaluated and passes nothing
// on, while the nodes behind it are evaluated, from the empty state.
func (m *refMethod) evaluated(n *refNode) bool {
	return n == m.CFG.Entry || len(n.Preds) > 0
}

// refNodeIndex is one node's operands resolved to variable indices; -1 stands
// for an operand that is absent or not a reference variable.
type refNodeIndex struct {
	dst, src int
	// argv is an OpCall's receiver followed by its arguments, so that
	// argv[p] is the variable bound to position p of the callee's summary.
	argv []int
	// uses lists the reference variables the node reads (the paper's
	// vars(N) restricted to reference variables, minus the pure assignment
	// target: overwriting a variable is a kill, not a use): Src, the
	// receiver, the arguments, refInstr.Uses, and "this" for loads and stores.
	uses   []int
	callee string // OpCall: the callee's "Holder.Name"
	alloc  int    // OpNew, OpCall: the node's allocation-site object
}

// refIndex interns the method's variables and abstract objects and resolves
// every node's operands.
func (m *refMethod) refIndex() {
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
	m.nodes = make([]refNodeIndex, len(m.CFG.Nodes))
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
func (m *refMethod) QName() string { return m.Holder + "." + m.Name }

// IsRef classifies a variable of the method.
func (m *refMethod) IsRef(v string) bool {
	if v == "this" {
		return true
	}
	return m.RefVar[v]
}

// refLowerer builds a refMethod from an AST method body.
type refLowerer struct {
	prog   *lang.Program
	method *refMethod
	nodes  []*refNode
	nextID int
	temps  int
	// lifted enables xSA mode: field accesses become assignments to
	// machine-level variables named "$<field>", with strong updates.
	lifted bool
	// prefix renames locals when inlining handler bodies into the
	// machine-level CFG.
	prefix string
}

func (lo *refLowerer) newNode(in refInstr) *refNode {
	n := &refNode{ID: lo.nextID, Instr: in}
	lo.nextID++
	lo.nodes = append(lo.nodes, n)
	return n
}

func refLink(from, to *refNode) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (lo *refLowerer) temp(ref bool) string {
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

func (lo *refLowerer) local(name string) string {
	if lo.prefix != "" {
		return lo.prefix + name
	}
	return name
}

// refFieldVar names the machine-level variable standing for a field in xSA
// mode.
func refFieldVar(field string) string { return "$" + field }

// refChain is a partial CFG: a head node and the set of dangling exits.
type refChain struct {
	head  *refNode
	tails []*refNode
}

func (lo *refLowerer) seq(c *refChain, n *refNode) {
	if c.head == nil {
		c.head = n
		c.tails = []*refNode{n}
		return
	}
	for _, t := range c.tails {
		refLink(t, n)
	}
	c.tails = []*refNode{n}
}

func (lo *refLowerer) append(c *refChain, sub refChain) {
	if sub.head == nil {
		return
	}
	if c.head == nil {
		*c = sub
		return
	}
	for _, t := range c.tails {
		refLink(t, sub.head)
	}
	c.tails = sub.tails
}

func refDeclareLocals(stmts []lang.Stmt, lo *refLowerer) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *lang.LocalDecl:
			if st.Decl.Type.IsRef() {
				lo.method.RefVar[lo.local(st.Decl.Name)] = true
			}
		case *lang.IfStmt:
			refDeclareLocals(st.Then, lo)
			refDeclareLocals(st.Else, lo)
		case *lang.WhileStmt:
			refDeclareLocals(st.Body, lo)
		}
	}
}

func (lo *refLowerer) lowerStmts(stmts []lang.Stmt) refChain {
	var c refChain
	for _, s := range stmts {
		lo.append(&c, lo.lowerStmt(s))
	}
	return c
}

func (lo *refLowerer) lowerStmt(s lang.Stmt) refChain {
	var c refChain
	switch st := s.(type) {
	case *lang.LocalDecl:
		// declaration only; no instruction
	case *lang.AssignStmt:
		v, sub := lo.lowerExpr(st.Value)
		c = sub
		if st.ToField != "" {
			if lo.lifted {
				lo.method.RefVar[refFieldVar(st.ToField)] = refRefType(lo.prog, lo.fieldType(st.ToField))
				lo.seq(&c, lo.newNode(refInstr{Op: OpAssign, Dst: refFieldVar(st.ToField), Src: v, Pos: st.Pos}))
			} else {
				lo.seq(&c, lo.newNode(refInstr{Op: OpStore, Field: st.ToField, Src: v, Pos: st.Pos}))
			}
		} else {
			lo.seq(&c, lo.newNode(refInstr{Op: OpAssign, Dst: lo.local(st.Target), Src: v, Pos: st.Pos}))
		}
	case *lang.ExprStmt:
		_, c = lo.lowerExpr(st.X)
	case *lang.SendStmt:
		dst, sub := lo.lowerExpr(st.Dst)
		c = sub
		payload := ""
		if st.Payload != nil {
			var psub refChain
			payload, psub = lo.lowerExpr(st.Payload)
			lo.append(&c, psub)
		}
		lo.seq(&c, lo.newNode(refInstr{Op: OpSend, Target: dst, Event: st.Event, Src: payload, Pos: st.Pos}))
	case *lang.RaiseStmt:
		// A raise delivers the payload to this machine itself; ownership is
		// retained, so the analysis treats it as a no-op over references.
		lo.seq(&c, lo.newNode(refInstr{Op: OpNop, Pos: st.Pos}))
	case *lang.ReturnStmt:
		src := ""
		if st.Value != nil {
			var sub refChain
			src, sub = lo.lowerExpr(st.Value)
			c = sub
		}
		lo.seq(&c, lo.newNode(refInstr{Op: OpReturn, Src: src, Pos: st.Pos}))
		// Statements after a return are unreachable; cut the chain.
		c.tails = nil
	case *lang.IfStmt:
		cond, sub := lo.lowerExpr(st.Cond)
		c = sub
		branch := lo.newNode(refInstr{Op: OpBranch, Src: cond, Uses: refRefUses(st.Cond, lo), Pos: st.Pos})
		lo.seq(&c, branch)
		then := lo.lowerStmts(st.Then)
		els := lo.lowerStmts(st.Else)
		join := lo.newNode(refInstr{Op: OpNop, Pos: st.Pos})
		if then.head != nil {
			refLink(branch, then.head)
			for _, t := range then.tails {
				refLink(t, join)
			}
		} else {
			refLink(branch, join)
		}
		if els.head != nil {
			refLink(branch, els.head)
			for _, t := range els.tails {
				refLink(t, join)
			}
		} else {
			refLink(branch, join)
		}
		c.tails = []*refNode{join}
	case *lang.WhileStmt:
		cond, sub := lo.lowerExpr(st.Cond)
		head := sub.head
		branch := lo.newNode(refInstr{Op: OpBranch, Src: cond, Uses: refRefUses(st.Cond, lo), Pos: st.Pos})
		if head == nil {
			head = branch
			sub = refChain{head: branch, tails: []*refNode{branch}}
		} else {
			for _, t := range sub.tails {
				refLink(t, branch)
			}
		}
		body := lo.lowerStmts(st.Body)
		exit := lo.newNode(refInstr{Op: OpNop, Pos: st.Pos})
		refLink(branch, exit)
		if body.head != nil {
			refLink(branch, body.head)
			for _, t := range body.tails {
				refLink(t, head)
			}
		} else {
			refLink(branch, head)
		}
		c = refChain{head: head, tails: []*refNode{exit}}
	case *lang.AssertStmt:
		cond, sub := lo.lowerExpr(st.Cond)
		c = sub
		lo.seq(&c, lo.newNode(refInstr{Op: OpBranch, Src: cond, Uses: refRefUses(st.Cond, lo), Pos: st.Pos}))
	}
	return c
}

// refRefUses collects reference-typed variable/field reads inside a collapsed
// scalar expression, so ownership condition 3 still sees them as uses.
func refRefUses(e lang.Expr, lo *refLowerer) []string {
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

func refRefType(prog *lang.Program, t lang.Type) bool { return t.IsRef() }

func (lo *refLowerer) fieldType(name string) lang.Type {
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
func (lo *refLowerer) lowerExpr(e lang.Expr) (string, refChain) {
	var c refChain
	switch x := e.(type) {
	case *lang.IntLit, *lang.BoolLit:
		t := lo.temp(false)
		lo.seq(&c, lo.newNode(refInstr{Op: OpConst, Dst: t}))
		return t, c
	case *lang.NullLit:
		t := lo.temp(true)
		lo.seq(&c, lo.newNode(refInstr{Op: OpConst, Dst: t, Pos: x.Pos}))
		return t, c
	case *lang.VarRef:
		return lo.local(x.Name), c
	case *lang.ThisRef:
		return "this", c
	case *lang.FieldRef:
		t := lo.temp(x.TypeOf().IsRef())
		if lo.lifted {
			lo.method.RefVar[refFieldVar(x.Field)] = x.TypeOf().IsRef()
			lo.seq(&c, lo.newNode(refInstr{Op: OpAssign, Dst: t, Src: refFieldVar(x.Field), Pos: x.Pos}))
		} else {
			lo.seq(&c, lo.newNode(refInstr{Op: OpLoad, Dst: t, Field: x.Field, Pos: x.Pos}))
		}
		return t, c
	case *lang.NewExpr:
		t := lo.temp(true)
		lo.seq(&c, lo.newNode(refInstr{Op: OpNew, Dst: t, Class: x.Class, Pos: x.Pos}))
		return t, c
	case *lang.CreateExpr:
		payload := ""
		if x.Payload != nil {
			var sub refChain
			payload, sub = lo.lowerExpr(x.Payload)
			lo.append(&c, sub)
		}
		t := lo.temp(false) // machine handles are scalar
		lo.seq(&c, lo.newNode(refInstr{Op: OpCreate, Dst: t, Class: x.Machine, Src: payload, Pos: x.Pos}))
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
		lo.seq(&c, lo.newNode(refInstr{
			Op: OpCall, Dst: dst, Recv: recv, Class: recvType, Method: x.Method,
			Args: args, Pos: x.Pos,
		}))
		return dst, c
	case *lang.UnaryExpr, *lang.BinaryExpr:
		// Scalar computation collapses; keep reference uses visible.
		t := lo.temp(false)
		lo.seq(&c, lo.newNode(refInstr{Op: OpConst, Dst: t, Uses: refRefUses(e, lo)}))
		return t, c
	}
	t := lo.temp(false)
	lo.seq(&c, lo.newNode(refInstr{Op: OpConst, Dst: t}))
	return t, c
}

// refBuildMethod lowers one method to its CFG form.
func refBuildMethod(prog *lang.Program, holderName string, decl *lang.MethodDecl) *refMethod {
	m := &refMethod{Holder: holderName, Name: decl.Name, RefVar: make(map[string]bool)}
	for _, p := range decl.Params {
		m.Params = append(m.Params, p.Name)
	}
	m.Decl = decl
	lo := &refLowerer{prog: prog, method: m}
	entry := lo.newNode(refInstr{Op: OpNop, Pos: decl.Pos})
	body := refLowerMethodInto(lo, decl)
	exit := lo.newNode(refInstr{Op: OpNop, Pos: decl.Pos})
	refLink(entry, body.head)
	for _, t := range body.tails {
		refLink(t, exit)
	}
	// Returns jump straight to exit.
	for _, n := range lo.nodes {
		if n.Instr.Op == OpReturn && len(n.Succs) == 0 && n != exit {
			refLink(n, exit)
		}
	}
	m.CFG = &refCFG{Entry: entry, Exit: exit, Nodes: lo.nodes}
	m.refIndex()
	return m
}

func refLowerMethodInto(lo *refLowerer, decl *lang.MethodDecl) refChain {
	for _, p := range decl.Params {
		if p.Type.IsRef() {
			lo.method.RefVar[lo.local(p.Name)] = true
		}
	}
	refDeclareLocals(decl.Body, lo)
	body := lo.lowerStmts(decl.Body)
	if body.head == nil {
		n := lo.newNode(refInstr{Op: OpNop, Pos: decl.Pos})
		body = refChain{head: n, tails: []*refNode{n}}
	}
	return body
}

// refBuildMachineCFG builds the cross-state analysis form of a machine
// (Section 5.4): one overarching CFG in which every state's entry block and
// every bound handler is inlined, the end of each handler leads to the hub
// of the (possibly new) state — "at the end of each method representing a
// state we non-deterministically call one of the methods representing an
// immediate successor state" — and machine fields are lifted to
// machine-level variables ("$f") with strong updates, which is what lets a
// reset like `this.f := null;` after a send discharge the staged-payload
// false positives (paper Example 5.5).
//
// Handler payloads are modeled as fresh unknown regions, one abstract
// object per inlined handler copy.
func refBuildMachineCFG(prog *lang.Program, md *lang.MachineDecl) *refMethod {
	m := &refMethod{Holder: md.Name, Name: "$machine", RefVar: make(map[string]bool)}
	lo := &refLowerer{prog: prog, lifted: true, method: m}
	entry := lo.newNode(refInstr{Op: OpNop, Pos: md.Pos})
	exit := lo.newNode(refInstr{Op: OpNop, Pos: md.Pos})

	// One hub node per state; control returns to a hub after each handler.
	hubs := make(map[string]*refNode, len(md.States))
	for _, s := range md.States {
		hubs[s.Name] = lo.newNode(refInstr{Op: OpNop, Pos: s.Pos})
	}

	copies := 0
	// inlineBody lowers stmts with a fresh prefix and links any contained
	// returns to the continuation node.
	inlineBody := func(stmts []lang.Stmt, payload *lang.VarDecl, pos lang.Pos) (head *refNode, cont func(*refNode)) {
		copies++
		lo.prefix = fmt.Sprintf("h%d$", copies)
		firstNew := len(lo.nodes)
		var c refChain
		if payload != nil {
			name := lo.local(payload.Name)
			if payload.Type.IsRef() {
				m.RefVar[name] = true
			}
			// The payload is an unknown region owned by this machine from
			// the moment the handler starts (paper: "an action assumes
			// ownership of any payload it receives").
			lo.seq(&c, lo.newNode(refInstr{Op: OpNew, Dst: name, Class: "$payload", Pos: pos}))
		}
		decl := &lang.MethodDecl{Name: "$inline", Body: stmts, Pos: pos}
		if payload != nil {
			decl.Params = []*lang.VarDecl{payload}
		}
		body := refLowerBodyLifted(lo, decl)
		lo.append(&c, body)
		if c.head == nil {
			n := lo.newNode(refInstr{Op: OpNop, Pos: pos})
			c = refChain{head: n, tails: []*refNode{n}}
		}
		created := lo.nodes[firstNew:]
		tails := c.tails
		lo.prefix = ""
		return c.head, func(next *refNode) {
			for _, t := range tails {
				refLink(t, next)
			}
			for _, n := range created {
				if n.Instr.Op == OpReturn && len(n.Succs) == 0 {
					refLink(n, next)
				}
			}
		}
	}

	// Entry chains, one per state with an entry block.
	entryHead := make(map[string]*refNode)
	entryCont := make(map[string]func(*refNode))
	for _, s := range md.States {
		if s.Entry != nil {
			h, cont := inlineBody(s.Entry, nil, s.Pos)
			entryHead[s.Name] = h
			entryCont[s.Name] = cont
		}
	}
	// enter returns the node that represents entering a state.
	enter := func(state string) *refNode {
		if h, ok := entryHead[state]; ok {
			return h
		}
		return hubs[state]
	}
	for _, s := range md.States {
		if cont, ok := entryCont[s.Name]; ok {
			cont(hubs[s.Name])
		}
	}

	refLink(entry, enter(md.StartState.Name))

	for _, s := range md.States {
		hub := hubs[s.Name]
		events := make([]string, 0, len(s.OnDo)+len(s.OnGoto))
		for e := range s.OnDo {
			events = append(events, e)
		}
		for e := range s.OnGoto {
			events = append(events, e)
		}
		sort.Strings(events)
		for _, e := range events {
			if meth, ok := s.OnDo[e]; ok {
				decl := md.MethodByName[meth]
				var payload *lang.VarDecl
				if len(decl.Params) == 1 {
					payload = decl.Params[0]
				}
				h, cont := inlineBody(decl.Body, payload, decl.Pos)
				refLink(hub, h)
				cont(hub)
				continue
			}
			target := s.OnGoto[e]
			refLink(hub, enter(target))
		}
		// A machine can stop receiving in any state.
		refLink(hub, exit)
	}

	m.CFG = &refCFG{Entry: entry, Exit: exit, Nodes: lo.nodes}
	m.refIndex()
	return m
}

// refLowerBodyLifted lowers a body using the refLowerer's current prefix and
// lifted mode.
func refLowerBodyLifted(lo *refLowerer, decl *lang.MethodDecl) refChain {
	for _, p := range decl.Params {
		if p.Type.IsRef() {
			lo.method.RefVar[lo.local(p.Name)] = true
		}
	}
	refDeclareLocals(decl.Body, lo)
	return lo.lowerStmts(decl.Body)
}

// usedRefVars returns the reference-typed variables the instruction reads
// (the paper's vars(N) restricted to reference variables, minus the pure
// assignment target: overwriting a variable is a kill, not a use). The
// receiver participates in loads and stores.
func (in refInstr) usedRefVars(isRef func(string) bool) []string {
	var out []string
	add := func(v string) {
		if v != "" && isRef(v) {
			out = append(out, v)
		}
	}
	add(in.Src)
	add(in.Recv)
	for _, a := range in.Args {
		add(a)
	}
	for _, u := range in.Uses {
		add(u)
	}
	switch in.Op {
	case OpLoad, OpStore:
		add("this")
	}
	return out
}

// refObjKind classifies abstract heap objects. Member insensitivity (paper
// Section 5.1: "we taint the whole object instead") means one abstract node
// stands for the entire region reachable from its source.
type refObjKind int

const (
	refObjParam refObjKind = iota // the region reachable from a formal parameter at entry
	refObjThis                    // the region reachable from the receiver
	refObjAlloc                   // an allocation site
)

// refObj is an abstract heap object.
type refObj struct {
	kind refObjKind
	idx  int // parameter index, or allocating node ID
}

// refObjSet is a small set of abstract objects.
type refObjSet map[refObj]bool

func (s refObjSet) clone() refObjSet {
	out := make(refObjSet, len(s))
	for o := range s {
		out[o] = true
	}
	return out
}

func (s refObjSet) addAll(other refObjSet) bool {
	changed := false
	for o := range other {
		if !s[o] {
			s[o] = true
			changed = true
		}
	}
	return changed
}

func (s refObjSet) intersects(other refObjSet) bool {
	for o := range s {
		if other[o] {
			return true
		}
	}
	return false
}

// Positions in method summaries: parameters are 0..n-1.
const (
	refPosThis = -1
)

// refSummary is a method's modular abstraction (the paper's taint summary
// plus the gives-up and writes sets).
type refSummary struct {
	// Links[i] lists positions whose objects may become reachable from
	// position i's object after the call (containment i -> j).
	Links map[int]map[int]bool
	// RetSources lists positions the return value may reach; RetFresh says
	// the return value may be a fresh allocation.
	RetSources map[int]bool
	RetFresh   bool
	// GivesUp marks parameter positions whose ownership the method
	// transfers away (Figure 5); refPosThis is possible too.
	GivesUp map[int]bool
	// Writes marks positions whose object may have a field written
	// (transitively); used by the read-only extension.
	Writes map[int]bool
}

func newRefSummary() *refSummary {
	return &refSummary{
		Links:      make(map[int]map[int]bool),
		RetSources: make(map[int]bool),
		GivesUp:    make(map[int]bool),
		Writes:     make(map[int]bool),
	}
}

func (s *refSummary) link(from, to int) bool {
	m, ok := s.Links[from]
	if !ok {
		m = make(map[int]bool)
		s.Links[from] = m
	}
	if m[to] {
		return false
	}
	m[to] = true
	return true
}

// refVarPts maps variables to their points-to sets at a program point.
type refVarPts map[string]refObjSet

func (p refVarPts) clone() refVarPts {
	out := make(refVarPts, len(p))
	for v, s := range p {
		out[v] = s.clone()
	}
	return out
}

func (p refVarPts) get(v string) refObjSet {
	if s, ok := p[v]; ok {
		return s
	}
	return nil
}

// joinInto merges other into p; reports change.
func (p refVarPts) joinInto(other refVarPts) bool {
	changed := false
	for v, s := range other {
		cur, ok := p[v]
		if !ok {
			p[v] = s.clone()
			changed = true
			continue
		}
		if cur.addAll(s) {
			changed = true
		}
	}
	return changed
}

// refMethodAnalysis is the per-method dataflow result.
type refMethodAnalysis struct {
	method *refMethod
	// in/out points-to states per node ID.
	in, out map[int]refVarPts
	// contains is the monotone containment relation over abstract objects
	// accumulated for this method (member-insensitive heap edges).
	contains map[refObj]refObjSet
	// containsEdges counts edges in contains, for fixpoint detection.
	containsEdges int
}

// reach closes a points-to set under containment.
func (ma *refMethodAnalysis) reach(s refObjSet) refObjSet {
	out := make(refObjSet)
	var stack []refObj
	for o := range s {
		out[o] = true
		stack = append(stack, o)
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := range ma.contains[o] {
			if !out[c] {
				out[c] = true
				stack = append(stack, c)
			}
		}
	}
	return out
}

// reachVarIn returns the closure of v's points-to set on entry to node id.
func (ma *refMethodAnalysis) reachVarIn(id int, v string) refObjSet {
	return ma.reach(ma.in[id].get(v))
}

// refAnalyzer drives the whole-program summary fixpoint.
type refAnalyzer struct {
	prog    *lang.Program
	methods map[string]*refMethod // key: Holder.Name
	summary map[string]*refSummary
	results map[string]*refMethodAnalysis
}

func (a *refAnalyzer) methodOf(holder, name string) *refMethod {
	return a.methods[holder+"."+name]
}

func (a *refAnalyzer) summaryOf(holder, name string) *refSummary {
	s, ok := a.summary[holder+"."+name]
	if !ok {
		s = newRefSummary()
		a.summary[holder+"."+name] = s
	}
	return s
}

// analyzeMethod runs the flow-sensitive points-to pass for one method and
// returns whether its summary changed (for the global fixpoint).
func (a *refAnalyzer) analyzeMethod(m *refMethod) bool {
	ma := &refMethodAnalysis{
		method:   m,
		in:       make(map[int]refVarPts),
		out:      make(map[int]refVarPts),
		contains: make(map[refObj]refObjSet),
	}
	a.results[m.QName()] = ma

	init := make(refVarPts)
	init["this"] = refObjSet{refObj{kind: refObjThis}: true}
	for i, p := range m.Params {
		if m.IsRef(p) {
			init[p] = refObjSet{refObj{kind: refObjParam, idx: i}: true}
		}
	}
	// In xSA mode, machine-level field variables start as fresh unknown
	// regions (distinct abstract objects), modeling arbitrary prior state.
	for v, isRef := range m.RefVar {
		if isRef && len(v) > 0 && v[0] == '$' {
			init[v] = refObjSet{refObj{kind: refObjParam, idx: refFieldParamIndex(m, v)}: true}
		}
	}

	// Chaotic iteration to a fixpoint. Everything is monotone: points-to
	// sets and the containment relation only grow, so termination follows
	// from the finite abstract-object universe. Containment growth must
	// re-trigger transfer (OpLoad reads reach(this)), which plain worklist
	// scheduling on state change alone would miss.
	ma.in[m.CFG.Entry.ID] = init
	for changed := true; changed; {
		changed = false
		for _, n := range m.CFG.Nodes {
			inState, ok := ma.in[n.ID]
			if !ok {
				if n != m.CFG.Entry && len(n.Preds) == 0 {
					continue // unreachable
				}
				inState = make(refVarPts)
				ma.in[n.ID] = inState
			}
			for _, p := range n.Preds {
				if po, ok := ma.out[p.ID]; ok {
					if inState.joinInto(po) {
						changed = true
					}
				}
			}
			before := ma.containsEdges
			newOut := a.transfer(ma, n, inState)
			if ma.containsEdges != before {
				changed = true
			}
			oldOut, had := ma.out[n.ID]
			if !had {
				ma.out[n.ID] = newOut
				changed = true
			} else if oldOut.joinInto(newOut) {
				changed = true
			}
		}
	}
	return a.updateSummary(m, ma)
}

// refFieldParamIndex gives each machine-level field variable a stable
// parameter-like abstract object index (negative, below refPosThis).
func refFieldParamIndex(m *refMethod, v string) int {
	names := make([]string, 0, len(m.RefVar))
	for name := range m.RefVar {
		if len(name) > 0 && name[0] == '$' {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for i, name := range names {
		if name == v {
			return -10 - i
		}
	}
	return -10
}

// transfer applies one instruction.
func (a *refAnalyzer) transfer(ma *refMethodAnalysis, n *refNode, in refVarPts) refVarPts {
	out := in.clone()
	ins := n.Instr
	setStrong := func(dst string, s refObjSet) {
		if dst == "" {
			return
		}
		out[dst] = s
	}
	switch ins.Op {
	case OpAssign:
		if ma.method.IsRef(ins.Dst) {
			setStrong(ins.Dst, out.get(ins.Src).clone())
		}
	case OpConst:
		if ma.method.IsRef(ins.Dst) {
			setStrong(ins.Dst, make(refObjSet))
		}
	case OpLoad:
		if ma.method.IsRef(ins.Dst) {
			// Member-insensitive: a field load yields the whole region
			// reachable from the receiver.
			setStrong(ins.Dst, ma.reach(out.get("this")))
		}
	case OpStore:
		src := out.get(ins.Src)
		for o := range out.get("this") {
			a.contain(ma, o, src)
		}
	case OpNew:
		setStrong(ins.Dst, refObjSet{refObj{kind: refObjAlloc, idx: n.ID}: true})
	case OpCall:
		a.transferCall(ma, n, out)
	case OpSend, OpCreate:
		// Ownership transfer is checked separately; no points-to effect.
		if ins.Op == OpCreate && ins.Dst != "" && ma.method.IsRef(ins.Dst) {
			setStrong(ins.Dst, make(refObjSet))
		}
	}
	return out
}

func (a *refAnalyzer) contain(ma *refMethodAnalysis, container refObj, contents refObjSet) {
	cur, ok := ma.contains[container]
	if !ok {
		cur = make(refObjSet)
		ma.contains[container] = cur
	}
	for o := range contents {
		if o != container && !cur[o] {
			cur[o] = true
			ma.containsEdges++
		}
	}
}

// transferCall applies a callee summary at a call site.
func (a *refAnalyzer) transferCall(ma *refMethodAnalysis, n *refNode, out refVarPts) {
	ins := n.Instr
	callee := a.methodOf(ins.Class, ins.Method)
	argOf := func(pos int) string {
		if pos == refPosThis {
			return ins.Recv
		}
		if pos >= 0 && pos < len(ins.Args) {
			return ins.Args[pos]
		}
		return ""
	}
	if callee == nil {
		// Unknown callee (paper Section 5.4: library calls are handled
		// conservatively — everything reachable becomes mutually reachable).
		all := make(refObjSet)
		vars := append([]string{ins.Recv}, ins.Args...)
		for _, v := range vars {
			all.addAll(ma.reach(out.get(v)))
		}
		for o := range all {
			a.contain(ma, o, all)
		}
		if ins.Dst != "" && ma.method.IsRef(ins.Dst) {
			s := all.clone()
			s[refObj{kind: refObjAlloc, idx: n.ID}] = true
			out[ins.Dst] = s
		}
		return
	}
	sum := a.summaryOf(ins.Class, ins.Method)
	for from, tos := range sum.Links {
		fromSet := out.get(argOf(from))
		for to := range tos {
			toReach := ma.reach(out.get(argOf(to)))
			for o := range fromSet {
				a.contain(ma, o, toReach)
			}
		}
	}
	if ins.Dst != "" && ma.method.IsRef(ins.Dst) {
		s := make(refObjSet)
		for pos := range sum.RetSources {
			s.addAll(ma.reach(out.get(argOf(pos))))
		}
		if sum.RetFresh {
			s[refObj{kind: refObjAlloc, idx: n.ID}] = true
		}
		out[ins.Dst] = s
	}
}

// updateSummary recomputes m's summary from the analysis result; returns
// whether it grew.
func (a *refAnalyzer) updateSummary(m *refMethod, ma *refMethodAnalysis) bool {
	sum := a.summaryOf(m.Holder, m.Name)
	changed := false
	exitID := m.CFG.Exit.ID

	posOf := func(o refObj) (int, bool) {
		switch o.kind {
		case refObjThis:
			return refPosThis, true
		case refObjParam:
			if o.idx >= 0 {
				return o.idx, true
			}
		}
		return 0, false
	}

	// Links: position i reaches position j's object at exit.
	exitState := ma.out[exitID]
	if exitState == nil {
		exitState = ma.in[exitID]
	}
	srcSets := map[int]refObjSet{refPosThis: ma.reach(refObjSet{refObj{kind: refObjThis}: true})}
	for i := range m.Params {
		srcSets[i] = ma.reach(refObjSet{refObj{kind: refObjParam, idx: i}: true})
	}
	for i, reachSet := range srcSets {
		for o := range reachSet {
			if j, ok := posOf(o); ok && j != i {
				if sum.link(i, j) {
					changed = true
				}
			}
		}
	}

	// Return sources.
	for _, n := range m.CFG.Nodes {
		if n.Instr.Op != OpReturn || n.Instr.Src == "" || !m.IsRef(n.Instr.Src) {
			continue
		}
		for o := range ma.reachVarIn(n.ID, n.Instr.Src) {
			if pos, ok := posOf(o); ok {
				if !sum.RetSources[pos] {
					sum.RetSources[pos] = true
					changed = true
				}
			} else if !sum.RetFresh {
				sum.RetFresh = true
				changed = true
			}
		}
	}

	// Writes: a field store writes this's region; calls propagate callee
	// writes onto whatever the written argument can reach.
	markWrite := func(s refObjSet) {
		for o := range s {
			if pos, ok := posOf(o); ok {
				if !sum.Writes[pos] {
					sum.Writes[pos] = true
					changed = true
				}
			}
		}
	}
	for _, n := range m.CFG.Nodes {
		switch n.Instr.Op {
		case OpStore:
			markWrite(ma.reachVarIn(n.ID, "this"))
		case OpCall:
			callee := a.summaryOf(n.Instr.Class, n.Instr.Method)
			if a.methodOf(n.Instr.Class, n.Instr.Method) == nil {
				// Unknown callee: assume it writes everything it can reach.
				markWrite(ma.reachVarIn(n.ID, n.Instr.Recv))
				for _, arg := range n.Instr.Args {
					markWrite(ma.reachVarIn(n.ID, arg))
				}
				continue
			}
			for pos := range callee.Writes {
				v := n.Instr.Recv
				if pos >= 0 && pos < len(n.Instr.Args) {
					v = n.Instr.Args[pos]
				}
				markWrite(ma.reachVarIn(n.ID, v))
			}
		}
	}

	// GivesUp (Figure 5): a send (or create, or call to a method that gives
	// up the corresponding formal) gives up every position whose entry
	// object is in the payload's reachable region.
	markGiveUp := func(s refObjSet) {
		for o := range s {
			if pos, ok := posOf(o); ok {
				if !sum.GivesUp[pos] {
					sum.GivesUp[pos] = true
					changed = true
				}
			}
		}
	}
	for _, n := range m.CFG.Nodes {
		for _, gv := range a.giveUpVarsAt(n) {
			if gv == "" || !m.IsRef(gv) {
				continue
			}
			markGiveUp(ma.reachVarIn(n.ID, gv))
		}
	}
	return changed
}

// giveUpVarsAt returns the variables whose ownership node n transfers away:
// the payload of a send/create, and every argument passed for a formal in
// the callee's give-up set.
func (a *refAnalyzer) giveUpVarsAt(n *refNode) []string {
	ins := n.Instr
	switch ins.Op {
	case OpSend, OpCreate:
		if ins.Src != "" {
			return []string{ins.Src}
		}
	case OpCall:
		if a.methodOf(ins.Class, ins.Method) == nil {
			return nil // unknown callees handled conservatively elsewhere
		}
		sum := a.summaryOf(ins.Class, ins.Method)
		var out []string
		for pos := range sum.GivesUp {
			if pos == refPosThis {
				out = append(out, ins.Recv)
			} else if pos >= 0 && pos < len(ins.Args) {
				out = append(out, ins.Args[pos])
			}
		}
		sort.Strings(out)
		return out
	}
	return nil
}

// runFixpoint computes all summaries to a global fixpoint (methods may be
// mutually recursive; Figure 5's outer repeat loop).
func (a *refAnalyzer) runFixpoint() {
	names := make([]string, 0, len(a.methods))
	for name := range a.methods {
		names = append(names, name)
	}
	sort.Strings(names)
	for {
		changed := false
		for _, name := range names {
			if a.analyzeMethod(a.methods[name]) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// Analyze runs the static data-race analysis on a checked program.
func refAnalyze(prog *lang.Program, opts Options) *Result {
	a := newRefAnalyzer(prog, false)
	a.runFixpoint()

	res := &Result{}
	perMachine := make(map[string][]Violation)
	for _, md := range sortedMachines(prog) {
		vs := a.checkMachine(md.Name)
		perMachine[md.Name] = vs
		res.BaseViolations = append(res.BaseViolations, vs...)
	}

	final := res.BaseViolations
	if opts.XSA {
		final = nil
		for _, md := range sortedMachines(prog) {
			if len(perMachine[md.Name]) == 0 {
				continue
			}
			// Re-analyze the machine on its cross-state CFG; only the
			// violations that persist there are reported (xSA is sound, so
			// discarding the others is safe).
			x := newRefAnalyzer(prog, true)
			x.installMachineCFG(md)
			x.runFixpoint()
			final = append(final, x.checkMachine(md.Name)...)
		}
	}

	if opts.ReadOnly {
		kept := final[:0:0]
		for _, v := range final {
			if v.Event != "" && !v.WritesAfter && a.eventReadOnly(v.Event) {
				res.ReadOnlySuppressed++
				continue
			}
			kept = append(kept, v)
		}
		final = kept
	}
	res.Violations = final
	return res
}

// GivesUp computes the give-up sets of every method (Figure 5), keyed by
// "Holder.Method", with formal parameter names as values; exported for
// tests and the psharp-analyze tool.
func refGivesUp(prog *lang.Program) map[string][]string {
	a := newRefAnalyzer(prog, false)
	a.runFixpoint()
	out := make(map[string][]string)
	for name, m := range a.methods {
		sum := a.summaryOf(m.Holder, m.Name)
		var params []string
		for pos := range sum.GivesUp {
			if pos >= 0 && pos < len(m.Params) {
				params = append(params, m.Params[pos])
			}
		}
		sort.Strings(params)
		if len(params) > 0 {
			out[name] = params
		}
	}
	return out
}

// newRefAnalyzer builds the method universe: all class methods, all machine
// methods, and a synthetic method per state entry block. In lifted mode the
// machine methods are replaced later by installMachineCFG.
func newRefAnalyzer(prog *lang.Program, lifted bool) *refAnalyzer {
	a := &refAnalyzer{
		prog:    prog,
		methods: make(map[string]*refMethod),
		summary: make(map[string]*refSummary),
		results: make(map[string]*refMethodAnalysis),
	}
	for _, cd := range prog.Classes {
		for _, m := range cd.Methods {
			mm := refBuildMethod(prog, cd.Name, m)
			a.methods[mm.QName()] = mm
		}
	}
	if !lifted {
		for _, md := range prog.Machines {
			for _, m := range md.Methods {
				mm := refBuildMethod(prog, md.Name, m)
				a.methods[mm.QName()] = mm
			}
			for _, s := range md.States {
				if s.Entry != nil {
					decl := &lang.MethodDecl{Name: "$entry_" + s.Name, Body: s.Entry, Pos: s.Pos}
					mm := refBuildMethod(prog, md.Name, decl)
					a.methods[mm.QName()] = mm
				}
			}
		}
	}
	return a
}

// installMachineCFG adds the cross-state form of a machine: its helper
// methods (not bound to any event), lowered again, and the machine-level
// CFG.
func (a *refAnalyzer) installMachineCFG(md *lang.MachineDecl) {
	handlerNames := make(map[string]bool)
	for _, s := range md.States {
		for _, meth := range s.OnDo {
			handlerNames[meth] = true
		}
	}
	for _, m := range md.Methods {
		if !handlerNames[m.Name] {
			mm := refBuildMethod(a.prog, md.Name, m)
			a.methods[mm.QName()] = mm
		}
	}
	m := refBuildMachineCFG(a.prog, md)
	a.methods[m.QName()] = m
}

// checkMachine runs the respects-ownership conditions over every analyzed
// method belonging to the machine.
func (a *refAnalyzer) checkMachine(machine string) []Violation {
	var out []Violation
	names := make([]string, 0, len(a.methods))
	for name, m := range a.methods {
		if m.Holder == machine {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, a.checkMethod(a.methods[name])...)
	}
	return out
}

// checkMethod applies conditions 1-3 at every give-up site of the method.
func (a *refAnalyzer) checkMethod(m *refMethod) []Violation {
	ma := a.results[m.QName()]
	if ma == nil {
		return nil
	}
	var out []Violation
	reachable := refCFGReachability(m.CFG)
	for _, n := range m.CFG.Nodes {
		for _, w := range a.giveUpVarsAt(n) {
			if w == "" || !m.IsRef(w) {
				continue
			}
			if v, bad := a.checkGiveUp(m, ma, n, w, reachable); bad {
				out = append(out, v)
			}
		}
	}
	return out
}

// checkGiveUp evaluates the three respects-ownership conditions for giving
// up variable w at node n.
func (a *refAnalyzer) checkGiveUp(m *refMethod, ma *refMethodAnalysis, n *refNode, w string, reachable map[int]map[int]bool) (Violation, bool) {
	give := ma.reachVarIn(n.ID, w)
	if len(give) == 0 {
		return Violation{}, false // provably null payload
	}
	v := Violation{
		Machine: m.Holder,
		Method:  m.Name,
		Pos:     n.Instr.Pos,
		Give:    w,
		Event:   n.Instr.Event,
	}

	// Condition 2 first: w must not be this, and no other variable at the
	// site may alias the given-up region.
	if w == "this" {
		v.Conditions = append(v.Conditions, 2)
		v.Detail = "the receiver itself is given up"
	} else {
		for _, other := range n.Instr.usedRefVars(m.IsRef) {
			if other == w {
				continue
			}
			if ma.reachVarIn(n.ID, other).intersects(give) {
				v.Conditions = append(v.Conditions, 2)
				v.Detail = fmt.Sprintf("%q aliases the given-up payload at the give-up site", other)
				break
			}
		}
	}

	// Condition 1: the receiver must not reach the given-up region (a later
	// state could access it through a field).
	if w != "this" && ma.reachVarIn(n.ID, "this").intersects(give) {
		v.Conditions = append(v.Conditions, 1)
		if v.Detail == "" {
			v.Detail = "the machine can still reach the payload through its fields"
		}
	}

	// Condition 3: no variable used on any path after the give-up may still
	// hold the payload. Evaluated with a forward taint pass so that strong
	// updates (and xSA's lifted fields) properly kill stale aliases. The
	// pass also records whether any tainted use is a write, which gates the
	// read-only extension.
	taint := a.taintForward(m, ma, n, give)
	cond3 := false
	for _, n2 := range m.CFG.Nodes {
		if !reachable[n.ID][n2.ID] {
			continue
		}
		tset := taint[n2.ID]
		if len(tset) == 0 {
			continue
		}
		for _, used := range n2.Instr.usedRefVars(m.IsRef) {
			if tset[used] {
				if !cond3 {
					cond3 = true
					v.Conditions = append(v.Conditions, 3)
					if v.Detail == "" {
						v.Detail = fmt.Sprintf("%q is used at %s after the payload was given up", used, n2.Instr.Pos)
					}
				}
				break
			}
		}
		if a.isWritingUse(m, n2, tset) {
			v.WritesAfter = true
		}
	}

	if len(v.Conditions) == 0 {
		return Violation{}, false
	}
	sort.Ints(v.Conditions)
	return v, true
}

// taintForward propagates "holds given-up data" forward from node n, where
// the seed is every variable whose reachable region overlaps give. Strong
// assignments kill taint; stores taint this (member-insensitively); calls
// propagate through summaries. Returns taint-at-entry per node.
func (a *refAnalyzer) taintForward(m *refMethod, ma *refMethodAnalysis, n *refNode, give refObjSet) map[int]map[string]bool {
	seed := make(map[string]bool)
	for v := range ma.in[n.ID] {
		if !m.IsRef(v) {
			continue
		}
		if ma.reachVarIn(n.ID, v).intersects(give) {
			seed[v] = true
		}
	}
	taintIn := make(map[int]map[string]bool)
	// The seed applies at the exit of n, i.e. at the entry of its succs.
	work := make([]*refNode, 0, len(n.Succs))
	for _, s := range n.Succs {
		taintIn[s.ID] = refCloneSet(seed)
		work = append(work, s)
	}
	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		out := a.taintTransfer(m, ma, cur, taintIn[cur.ID])
		for _, s := range cur.Succs {
			dst, ok := taintIn[s.ID]
			if !ok {
				taintIn[s.ID] = refCloneSet(out)
				work = append(work, s)
				continue
			}
			changed := false
			for v := range out {
				if !dst[v] {
					dst[v] = true
					changed = true
				}
			}
			if changed {
				work = append(work, s)
			}
		}
	}
	return taintIn
}

func refCloneSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// taintTransfer applies one instruction to a taint set.
func (a *refAnalyzer) taintTransfer(m *refMethod, ma *refMethodAnalysis, n *refNode, in map[string]bool) map[string]bool {
	out := refCloneSet(in)
	ins := n.Instr
	switch ins.Op {
	case OpAssign:
		if m.IsRef(ins.Dst) {
			if in[ins.Src] {
				out[ins.Dst] = true
			} else {
				delete(out, ins.Dst)
			}
		}
	case OpConst, OpNew:
		delete(out, ins.Dst)
	case OpLoad:
		if in["this"] {
			out[ins.Dst] = true
		} else {
			delete(out, ins.Dst)
		}
	case OpStore:
		if in[ins.Src] {
			out["this"] = true
		}
	case OpCreate:
		delete(out, ins.Dst)
	case OpCall:
		callee := a.methodOf(ins.Class, ins.Method)
		argOf := func(pos int) string {
			if pos == refPosThis {
				return ins.Recv
			}
			if pos >= 0 && pos < len(ins.Args) {
				return ins.Args[pos]
			}
			return ""
		}
		if callee == nil {
			// Unknown callee: taint spreads to everything involved.
			any := in[ins.Recv]
			for _, arg := range ins.Args {
				if in[arg] {
					any = true
				}
			}
			if any {
				out[ins.Recv] = true
				for _, arg := range ins.Args {
					if m.IsRef(arg) {
						out[arg] = true
					}
				}
				if ins.Dst != "" && m.IsRef(ins.Dst) {
					out[ins.Dst] = true
				}
			} else if ins.Dst != "" {
				delete(out, ins.Dst)
			}
			break
		}
		sum := a.summaryOf(ins.Class, ins.Method)
		for from, tos := range sum.Links {
			for to := range tos {
				if in[argOf(to)] && argOf(from) != "" && m.IsRef(argOf(from)) {
					out[argOf(from)] = true
				}
			}
		}
		if ins.Dst != "" && m.IsRef(ins.Dst) {
			tainted := false
			for pos := range sum.RetSources {
				if in[argOf(pos)] {
					tainted = true
				}
			}
			if tainted {
				out[ins.Dst] = true
			} else {
				delete(out, ins.Dst)
			}
		}
	}
	return out
}

// isWritingUse reports whether node n may write the region held by a
// tainted variable: a field store through a tainted receiver, or a call
// whose writing position is bound to a tainted variable.
func (a *refAnalyzer) isWritingUse(m *refMethod, n *refNode, tainted map[string]bool) bool {
	ins := n.Instr
	switch ins.Op {
	case OpStore:
		return tainted["this"]
	case OpCall:
		callee := a.methodOf(ins.Class, ins.Method)
		if callee == nil {
			// Unknown callee: assume it writes whatever it can reach.
			if tainted[ins.Recv] {
				return true
			}
			for _, arg := range ins.Args {
				if tainted[arg] {
					return true
				}
			}
			return false
		}
		sum := a.summaryOf(ins.Class, ins.Method)
		for pos := range sum.Writes {
			v := ins.Recv
			if pos >= 0 && pos < len(ins.Args) {
				v = ins.Args[pos]
			}
			if tainted[v] {
				return true
			}
		}
	}
	return false
}

// refCFGReachability computes can-reach-via-at-least-one-edge per node pair.
func refCFGReachability(cfg *refCFG) map[int]map[int]bool {
	out := make(map[int]map[int]bool, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		seen := make(map[int]bool)
		stack := append([]*refNode(nil), n.Succs...)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[cur.ID] {
				continue
			}
			seen[cur.ID] = true
			stack = append(stack, cur.Succs...)
		}
		out[n.ID] = seen
	}
	return out
}

// eventReadOnly reports whether every handler of the event, across every
// machine, only reads its payload: the payload parameter is neither written
// (directly or through callees) nor stored into the receiving machine's
// fields (which would allow writes in later states).
func (a *refAnalyzer) eventReadOnly(event string) bool {
	for _, md := range a.prog.Machines {
		for _, s := range md.States {
			meth, ok := s.OnDo[event]
			if !ok {
				continue
			}
			decl := md.MethodByName[meth]
			if decl == nil || len(decl.Params) == 0 || decl.Params[0].Type.IsScalar() {
				continue // no payload access at all
			}
			sum := a.summaryOf(md.Name, meth)
			if sum.Writes[0] {
				return false
			}
			// Stored into machine state?
			if tos, ok := sum.Links[refPosThis]; ok && tos[0] {
				return false
			}
		}
		// Transitions deliver the payload to entry blocks, which cannot
		// access payloads in this language; they are read-only by
		// construction.
	}
	return true
}

// requireSameAsReference analyses prog under both solvers with every option
// set and requires identical results.
func requireSameAsReference(t *testing.T, id string, prog *lang.Program) {
	t.Helper()
	want := refGivesUp(prog)
	for _, opts := range goldenOptionSets {
		got, gu := AnalyzeGivesUp(prog, opts)
		if ref := refAnalyze(prog, opts); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s %+v: the solvers disagree:\n dense     %s\n reference %s", id, opts, dumpResult(got), dumpResult(ref))
		}
		if !reflect.DeepEqual(gu, want) {
			t.Errorf("%s: give-up sets disagree:\n dense     %v\n reference %v", id, gu, want)
		}
	}
	if gu := GivesUp(prog); !reflect.DeepEqual(gu, want) {
		t.Errorf("%s: GivesUp disagrees:\n dense     %v\n reference %v", id, gu, want)
	}
}

// FuzzAnalyzeDifferential: any input that parses and checks must analyse
// without panic and give the same Result and give-up sets under the dense
// solver and the reference engine. The seeds are the 21 corpus sources plus
// the shapes the corpus lacks (dead code behind a return, an argument given
// up twice, recursion, a handler called as a helper), so `go test` runs
// them all.
func FuzzAnalyzeDifferential(f *testing.F) {
	for _, src := range corpusSources(f) {
		f.Add(src.text)
	}
	for i, src := range differentialSeeds {
		prog, err := lang.Parse(src)
		if err == nil {
			err = lang.Check(prog)
		}
		if err != nil {
			f.Fatalf("differentialSeeds[%d] must be a valid program: %v", i, err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, text string) {
		prog, err := lang.Parse(text)
		if err != nil || lang.Check(prog) != nil {
			t.Skip()
		}
		requireSameAsReference(t, "input", prog)
	})
}

// differentialSeeds are the shapes the corpus does not exercise.
var differentialSeeds = []string{
	// Dead code behind a return: the head of the dead chain is never
	// evaluated, the nodes behind it are — from the empty state — and a
	// give-up site among them is still checked. In g the dead head is a
	// call, which containment growth must not wake up: its fresh result
	// would make the dead send's payload non-null.
	`
event eX;
event eY;
class box {
	var v: int;
	var nxt: box;
	method touch() { this.v := 1; }
	method link(b: box) { this.nxt := b; }
	method wrap(): box { var b: box; b := new box; b.link(this); return b; }
}
machine m {
	var peer: machine;
	start state S { entry {} on eX do h; on eY do g; }
	method g(p: box) {
		var b: box;
		var c: box;
		var q: machine;
		b := new box;
		p.link(b);
		return;
		c := b.wrap();
		q := this.peer;
		send q, eX, c;
		c.touch();
	}
	method h(p: box) {
		var y: int;
		var b: box;
		var q: machine;
		return;
		y := 1;
		b := new box;
		q := this.peer;
		send q, eX, b;
		b.touch();
	}
}`,
	// One variable passed for two given-up formals is reported twice; the
	// give-up set climbs through a helper chain and a recursive method.
	`
event eX;
class box {
	var nxt: box;
	method link(b: box) { this.nxt := b; }
	method last(): box {
		var n: box;
		n := this.nxt;
		if (n == null) { return this; }
		n := n.last();
		return n;
	}
}
machine m {
	var peer: machine;
	var keep: box;
	start state S { entry {} on eX do h; }
	method h(p: box) {
		var t: box;
		t := p.last();
		this.two(p, p);
		t.link(p);
	}
	method two(a: box, b: box) {
		this.one(a);
		this.one(b);
	}
	method one(a: box) {
		var q: machine;
		q := this.peer;
		if (a == null) { this.one(a); }
		send q, eX, a;
	}
}`,
	// A handler called as a helper is an unknown callee under xSA, also with
	// a scalar argument loaded from a field; a scalar payload; a create
	// with a payload; a loop that re-sends a stored field.
	`
event eX;
event eN;
event eGo;
class box {
	var v: int;
	var nxt: box;
	method touch() { this.v := this.v + 1; }
	method peek(): int { var r: int; r := this.v; return r; }
	method link(b: box) { this.nxt := b; }
	method wrap(): box { var b: box; b := new box; b.link(this); return b; }
}
machine m {
	var peer: machine;
	var count: int;
	var stash: box;
	start state S {
		entry { var b: box; b := new box; this.stash := b; this.peer := create w(b); }
		on eX do h;
		on eN do hn;
		on eGo goto T;
	}
	state T {
		entry { this.stash := null; }
		on eX do h;
	}
	method h(p: box) {
		var q: machine;
		var i: int;
		q := this.peer;
		i := 0;
		while (i < 3) {
			send q, eX, this.stash;
			i := i + 1;
		}
		this.aux(p);
		this.stash := p.wrap();
	}
	method hn(n: int) {
		this.count := n;
	}
	method aux(p: box) {
		var n: int;
		var q: machine;
		q := this.peer;
		send q, eX, p;
		n := this.count;
		this.hn(n);
		this.h(p);
		n := p.peek();
	}
}
machine w {
	start state S { entry {} on eX do got; }
	method got(p: box) { p.touch(); }
}`,
}
