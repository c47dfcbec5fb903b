package lang

import (
	"fmt"
)

// Check resolves names and types for the program, filling symbol tables,
// per-expression types and the declaration every variable, field and call
// refers to (VarRef.Decl, FieldRef.Decl, AssignStmt.Decl, CallExpr.Decl,
// with each method's Vars), and numbers every declaration by its position
// in the declaring list (the Index of each VarDecl, EventDecl, ClassDecl,
// MachineDecl, MethodDecl and StateDecl), so that no later pass looks a
// name up again. It enforces the paper's core-language assumptions:
// member variables are only accessible through this; machines exchange
// data only through events; locals and parameters have method-wide scope.
func Check(prog *Program) error {
	c := &checker{prog: prog}
	return c.run()
}

// holder abstracts over classes, machines and monitors (all hold fields +
// methods).
type holder struct {
	name    string
	fields  map[string]*VarDecl
	methods map[string]*MethodDecl
	machine bool
	// monitor marks a specification monitor: machine-shaped, but its method
	// bodies must be passive (no send, no create) and it cannot be created
	// or addressed by the program.
	monitor bool
}

type checker struct {
	prog    *Program
	holders map[string]*holder

	// current method scope
	cur    *holder
	method *MethodDecl
	scope  map[string]*VarDecl
	vars   []*VarDecl      // the method's frame so far: parameters, then locals
	frames slab[*VarDecl]  // backs every MethodDecl.Vars
	bound  map[string]bool // checkStates: the events one state binds
}

func (c *checker) errf(pos Pos, format string, args ...any) error {
	return fmt.Errorf("lang: %s: %s", pos, fmt.Sprintf(format, args...))
}

func (c *checker) run() error {
	p := c.prog
	p.ClassByName = make(map[string]*ClassDecl)
	p.MachineByName = make(map[string]*MachineDecl)
	p.MonitorByName = make(map[string]*MachineDecl)
	p.EventByName = make(map[string]*EventDecl)
	c.holders = make(map[string]*holder)
	c.scope = make(map[string]*VarDecl)
	c.bound = make(map[string]bool)

	for i, e := range p.Events {
		if _, dup := p.EventByName[e.Name]; dup {
			return c.errf(e.Pos, "event %q declared twice", e.Name)
		}
		p.EventByName[e.Name] = e
		e.Index = i
	}
	for i, cd := range p.Classes {
		if _, dup := c.holders[cd.Name]; dup {
			return c.errf(cd.Pos, "type %q declared twice", cd.Name)
		}
		cd.FieldByName = make(map[string]*VarDecl)
		cd.MethodByName = make(map[string]*MethodDecl)
		h := &holder{name: cd.Name, fields: cd.FieldByName, methods: cd.MethodByName}
		c.holders[cd.Name] = h
		p.ClassByName[cd.Name] = cd
		cd.Index = i
		if err := c.fillMembers(h, cd.Fields, cd.Methods, cd.Pos); err != nil {
			return err
		}
	}
	for i, md := range p.Machines {
		if _, dup := c.holders[md.Name]; dup {
			return c.errf(md.Pos, "type %q declared twice", md.Name)
		}
		md.FieldByName = make(map[string]*VarDecl)
		md.MethodByName = make(map[string]*MethodDecl)
		md.StateByName = make(map[string]*StateDecl)
		h := &holder{name: md.Name, fields: md.FieldByName, methods: md.MethodByName, machine: true}
		c.holders[md.Name] = h
		p.MachineByName[md.Name] = md
		md.Index = i
		if err := c.fillMembers(h, md.Fields, md.Methods, md.Pos); err != nil {
			return err
		}
	}
	for i, md := range p.Monitors {
		if _, dup := c.holders[md.Name]; dup {
			return c.errf(md.Pos, "type %q declared twice", md.Name)
		}
		md.FieldByName = make(map[string]*VarDecl)
		md.MethodByName = make(map[string]*MethodDecl)
		md.StateByName = make(map[string]*StateDecl)
		h := &holder{name: md.Name, fields: md.FieldByName, methods: md.MethodByName, machine: true, monitor: true}
		c.holders[md.Name] = h
		p.MonitorByName[md.Name] = md
		md.Index = i
		if err := c.fillMembers(h, md.Fields, md.Methods, md.Pos); err != nil {
			return err
		}
	}

	// Validate types of all fields and method signatures.
	for _, cd := range p.Classes {
		if err := c.checkSignatures(cd.Fields, cd.Methods); err != nil {
			return err
		}
	}
	for _, md := range p.Machines {
		if err := c.checkSignatures(md.Fields, md.Methods); err != nil {
			return err
		}
	}
	for _, md := range p.Monitors {
		if err := c.checkSignatures(md.Fields, md.Methods); err != nil {
			return err
		}
	}

	// Check machine and monitor state tables.
	for _, md := range p.Machines {
		if err := c.checkStates(md); err != nil {
			return err
		}
	}
	for _, md := range p.Monitors {
		if err := c.checkStates(md); err != nil {
			return err
		}
	}

	// Check method bodies.
	for _, cd := range p.Classes {
		for _, m := range cd.Methods {
			if err := c.checkMethod(c.holders[cd.Name], m); err != nil {
				return err
			}
		}
	}
	for _, md := range p.Machines {
		if err := c.checkMachineBodies(md); err != nil {
			return err
		}
	}
	for _, md := range p.Monitors {
		if err := c.checkMachineBodies(md); err != nil {
			return err
		}
	}
	return nil
}

// checkMachineBodies checks the method and state-entry bodies of one
// machine or monitor declaration.
func (c *checker) checkMachineBodies(md *MachineDecl) error {
	for _, m := range md.Methods {
		if err := c.checkMethod(c.holders[md.Name], m); err != nil {
			return err
		}
	}
	for _, s := range md.States {
		if s.Entry != nil {
			s.EntryMethod = &MethodDecl{Name: "$entry_" + s.Name, Body: s.Entry, Pos: s.Pos}
			if err := c.checkMethod(c.holders[md.Name], s.EntryMethod); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *checker) fillMembers(h *holder, fields []*VarDecl, methods []*MethodDecl, pos Pos) error {
	for i, f := range fields {
		if _, dup := h.fields[f.Name]; dup {
			return c.errf(f.Pos, "%s: field %q declared twice", h.name, f.Name)
		}
		h.fields[f.Name] = f
		f.Index = i
	}
	for i, m := range methods {
		if _, dup := h.methods[m.Name]; dup {
			return c.errf(m.Pos, "%s: method %q declared twice", h.name, m.Name)
		}
		h.methods[m.Name] = m
		m.Index = i
	}
	return nil
}

func (c *checker) validType(t Type) bool {
	if t.IsScalar() {
		return true
	}
	h, ok := c.holders[t.Name]
	return ok && !h.machine // machine instances are addressed via 'machine' handles
}

func (c *checker) checkSignatures(fields []*VarDecl, methods []*MethodDecl) error {
	for _, f := range fields {
		if !c.validType(f.Type) {
			return c.errf(f.Pos, "field %q has unknown type %q", f.Name, f.Type.Name)
		}
	}
	for _, m := range methods {
		for _, pdecl := range m.Params {
			if !c.validType(pdecl.Type) {
				return c.errf(pdecl.Pos, "parameter %q has unknown type %q", pdecl.Name, pdecl.Type.Name)
			}
		}
		if m.Result != nil && !c.validType(*m.Result) {
			return c.errf(m.Pos, "method %q has unknown result type %q", m.Name, m.Result.Name)
		}
	}
	return nil
}

func (c *checker) checkStates(md *MachineDecl) error {
	kind := "machine"
	if md.IsMonitor {
		kind = "monitor"
	}
	for i, s := range md.States {
		if _, dup := md.StateByName[s.Name]; dup {
			return c.errf(s.Pos, "%s %q: state %q declared twice", kind, md.Name, s.Name)
		}
		md.StateByName[s.Name] = s
		s.Index = i
		if s.Start {
			if md.StartState != nil {
				return c.errf(s.Pos, "%s %q: more than one start state", kind, md.Name)
			}
			md.StartState = s
		}
		if (s.Hot || s.Cold) && !md.IsMonitor {
			return c.errf(s.Pos, "machine %q state %q: hot/cold annotations are only allowed on monitor states", md.Name, s.Name)
		}
	}
	if md.StartState == nil {
		return c.errf(md.Pos, "%s %q: no start state", kind, md.Name)
	}
	for _, s := range md.States {
		// An event may be bound at most once per state across all tables
		// (paper Section 6.1: "an event can be handled in more than one way
		// in the same state" is an error).
		clear(c.bound)
		bind := func(evt string) error {
			if _, ok := c.prog.EventByName[evt]; !ok {
				return c.errf(s.Pos, "%s %q state %q: unknown event %q", kind, md.Name, s.Name, evt)
			}
			if c.bound[evt] {
				return c.errf(s.Pos, "%s %q state %q: event %q bound more than once", kind, md.Name, s.Name, evt)
			}
			c.bound[evt] = true
			return nil
		}
		for evt, meth := range s.OnDo {
			if err := bind(evt); err != nil {
				return err
			}
			m, ok := md.MethodByName[meth]
			if !ok {
				return c.errf(s.Pos, "%s %q state %q: action %q is not a method", kind, md.Name, s.Name, meth)
			}
			if len(m.Params) > 1 {
				return c.errf(m.Pos, "%s %q: handler method %q must take at most one (payload) parameter", kind, md.Name, meth)
			}
		}
		for evt, target := range s.OnGoto {
			if err := bind(evt); err != nil {
				return err
			}
			if _, ok := md.StateByName[target]; !ok {
				return c.errf(s.Pos, "%s %q state %q: goto target %q is not a state", kind, md.Name, s.Name, target)
			}
		}
		for evt := range s.Defers {
			if md.IsMonitor {
				return c.errf(s.Pos, "monitor %q state %q: monitors cannot defer events (they have no queue)", md.Name, s.Name)
			}
			if err := bind(evt); err != nil {
				return err
			}
		}
		for evt := range s.Ignores {
			if err := bind(evt); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *checker) checkMethod(h *holder, m *MethodDecl) error {
	c.cur = h
	c.method = m
	clear(c.scope)
	c.vars = c.vars[:0]
	for _, p := range m.Params {
		if _, dup := c.scope[p.Name]; dup {
			return c.errf(p.Pos, "duplicate parameter %q", p.Name)
		}
		c.declare(p)
	}
	err := c.checkStmts(m.Body)
	m.Vars = c.frames.copyOf(c.vars)
	return err
}

// declare adds a parameter or local to the current method's scope and frame.
func (c *checker) declare(d *VarDecl) {
	c.scope[d.Name] = d
	d.Index = len(c.vars)
	c.vars = append(c.vars, d)
}

func (c *checker) checkStmts(stmts []Stmt) error {
	for _, s := range stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch st := s.(type) {
	case *LocalDecl:
		d := st.Decl
		if !c.validType(d.Type) {
			return c.errf(d.Pos, "local %q has unknown type %q", d.Name, d.Type.Name)
		}
		if _, dup := c.scope[d.Name]; dup {
			return c.errf(d.Pos, "variable %q already declared", d.Name)
		}
		c.declare(d)
		return nil
	case *AssignStmt:
		vt, err := c.checkExpr(st.Value)
		if err != nil {
			return err
		}
		if st.ToField != "" {
			f, ok := c.cur.fields[st.ToField]
			if !ok {
				return c.errf(st.Pos, "%s has no field %q", c.cur.name, st.ToField)
			}
			st.Decl = f
		} else {
			d, ok := c.scope[st.Target]
			if !ok {
				return c.errf(st.Pos, "undeclared variable %q", st.Target)
			}
			st.Decl = d
		}
		if target := st.Decl.Type; !assignable(target, vt, st.Value) {
			return c.errf(st.Pos, "cannot assign %s to %s", vt.Name, target.Name)
		}
		return nil
	case *ExprStmt:
		_, err := c.checkExpr(st.X)
		return err
	case *SendStmt:
		if c.cur.monitor {
			return c.errf(st.Pos, "monitor %q: monitors cannot send events (they are passive observers)", c.cur.name)
		}
		dt, err := c.checkExpr(st.Dst)
		if err != nil {
			return err
		}
		if dt.Name != "machine" {
			return c.errf(st.Pos, "send destination must have type machine, got %s", dt.Name)
		}
		if _, ok := c.prog.EventByName[st.Event]; !ok {
			return c.errf(st.Pos, "unknown event %q", st.Event)
		}
		if st.Payload != nil {
			if _, err := c.checkExpr(st.Payload); err != nil {
				return err
			}
		}
		return nil
	case *RaiseStmt:
		if _, ok := c.prog.EventByName[st.Event]; !ok {
			return c.errf(st.Pos, "unknown event %q", st.Event)
		}
		if st.Payload != nil {
			if _, err := c.checkExpr(st.Payload); err != nil {
				return err
			}
		}
		return nil
	case *ReturnStmt:
		if st.Value == nil {
			if c.method.Result != nil {
				return c.errf(st.Pos, "method %q must return a %s", c.method.Name, c.method.Result.Name)
			}
			return nil
		}
		if c.method.Result == nil {
			return c.errf(st.Pos, "method %q returns no value", c.method.Name)
		}
		vt, err := c.checkExpr(st.Value)
		if err != nil {
			return err
		}
		if !assignable(*c.method.Result, vt, st.Value) {
			return c.errf(st.Pos, "cannot return %s from method of type %s", vt.Name, c.method.Result.Name)
		}
		return nil
	case *IfStmt:
		ct, err := c.checkExpr(st.Cond)
		if err != nil {
			return err
		}
		if ct.Name != "bool" {
			return c.errf(st.Pos, "if condition must be bool, got %s", ct.Name)
		}
		if err := c.checkStmts(st.Then); err != nil {
			return err
		}
		return c.checkStmts(st.Else)
	case *WhileStmt:
		ct, err := c.checkExpr(st.Cond)
		if err != nil {
			return err
		}
		if ct.Name != "bool" {
			return c.errf(st.Pos, "while condition must be bool, got %s", ct.Name)
		}
		return c.checkStmts(st.Body)
	case *AssertStmt:
		ct, err := c.checkExpr(st.Cond)
		if err != nil {
			return err
		}
		if ct.Name != "bool" {
			return c.errf(st.Pos, "assert condition must be bool, got %s", ct.Name)
		}
		return nil
	}
	return fmt.Errorf("lang: unknown statement %T", s)
}

// assignable reports whether a value of type src (produced by expr) can be
// stored in a slot of type dst. null is assignable to any reference type.
func assignable(dst, src Type, expr Expr) bool {
	if _, isNull := expr.(*NullLit); isNull {
		return dst.IsRef()
	}
	return dst.Name == src.Name
}

func (c *checker) setType(e Expr, t Type) Type {
	switch x := e.(type) {
	case *IntLit:
		x.typ = t
	case *BoolLit:
		x.typ = t
	case *NullLit:
		x.typ = t
	case *VarRef:
		x.typ = t
	case *ThisRef:
		x.typ = t
	case *FieldRef:
		x.typ = t
	case *NewExpr:
		x.typ = t
	case *CreateExpr:
		x.typ = t
	case *CallExpr:
		x.typ = t
	case *UnaryExpr:
		x.typ = t
	case *BinaryExpr:
		x.typ = t
	}
	return t
}

func (c *checker) checkExpr(e Expr) (Type, error) {
	switch x := e.(type) {
	case *IntLit:
		return c.setType(e, Type{"int"}), nil
	case *BoolLit:
		return c.setType(e, Type{"bool"}), nil
	case *NullLit:
		// null's static type is resolved by context; give it a marker.
		return c.setType(e, Type{"null"}), nil
	case *VarRef:
		d, ok := c.scope[x.Name]
		if !ok {
			return Type{}, c.errf(x.Pos, "undeclared variable %q", x.Name)
		}
		x.Decl = d
		return c.setType(e, d.Type), nil
	case *ThisRef:
		return c.setType(e, Type{c.cur.name}), nil
	case *FieldRef:
		f, ok := c.cur.fields[x.Field]
		if !ok {
			return Type{}, c.errf(x.Pos, "%s has no field %q", c.cur.name, x.Field)
		}
		x.Decl = f
		return c.setType(e, f.Type), nil
	case *NewExpr:
		h, ok := c.holders[x.Class]
		if !ok || h.machine {
			return Type{}, c.errf(x.Pos, "new of unknown class %q", x.Class)
		}
		return c.setType(e, Type{x.Class}), nil
	case *CreateExpr:
		if c.cur.monitor {
			return Type{}, c.errf(x.Pos, "monitor %q: monitors cannot create machines (they are passive observers)", c.cur.name)
		}
		h, ok := c.holders[x.Machine]
		if !ok || !h.machine {
			return Type{}, c.errf(x.Pos, "create of unknown machine %q", x.Machine)
		}
		if h.monitor {
			return Type{}, c.errf(x.Pos, "cannot create monitor %q: monitors are attached automatically, one instance per run", x.Machine)
		}
		if x.Payload != nil {
			if _, err := c.checkExpr(x.Payload); err != nil {
				return Type{}, err
			}
		}
		return c.setType(e, Type{"machine"}), nil
	case *CallExpr:
		rt, err := c.checkExpr(x.Recv)
		if err != nil {
			return Type{}, err
		}
		h, ok := c.holders[rt.Name]
		if !ok {
			return Type{}, c.errf(x.Pos, "cannot call method on value of type %s", rt.Name)
		}
		m, ok := h.methods[x.Method]
		if !ok {
			return Type{}, c.errf(x.Pos, "%s has no method %q", rt.Name, x.Method)
		}
		if len(x.Args) != len(m.Params) {
			return Type{}, c.errf(x.Pos, "%s.%s expects %d arguments, got %d", rt.Name, x.Method, len(m.Params), len(x.Args))
		}
		for i, a := range x.Args {
			at, err := c.checkExpr(a)
			if err != nil {
				return Type{}, err
			}
			if !assignable(m.Params[i].Type, at, a) {
				return Type{}, c.errf(x.Pos, "argument %d of %s.%s: cannot pass %s as %s",
					i+1, rt.Name, x.Method, at.Name, m.Params[i].Type.Name)
			}
		}
		x.Decl = m
		if m.Result == nil {
			return c.setType(e, Type{"void"}), nil
		}
		return c.setType(e, *m.Result), nil
	case *UnaryExpr:
		xt, err := c.checkExpr(x.X)
		if err != nil {
			return Type{}, err
		}
		switch x.Op {
		case "!":
			if xt.Name != "bool" {
				return Type{}, c.errf(x.Pos, "! requires bool, got %s", xt.Name)
			}
			return c.setType(e, Type{"bool"}), nil
		case "-":
			if xt.Name != "int" {
				return Type{}, c.errf(x.Pos, "unary - requires int, got %s", xt.Name)
			}
			return c.setType(e, Type{"int"}), nil
		}
		return Type{}, c.errf(x.Pos, "unknown unary operator %q", x.Op)
	case *BinaryExpr:
		lt, err := c.checkExpr(x.L)
		if err != nil {
			return Type{}, err
		}
		rt, err := c.checkExpr(x.R)
		if err != nil {
			return Type{}, err
		}
		switch x.Op {
		case "+", "-", "*", "/", "%":
			if lt.Name != "int" || rt.Name != "int" {
				return Type{}, c.errf(x.Pos, "%s requires int operands, got %s and %s", x.Op, lt.Name, rt.Name)
			}
			return c.setType(e, Type{"int"}), nil
		case "<", "<=", ">", ">=":
			if lt.Name != "int" || rt.Name != "int" {
				return Type{}, c.errf(x.Pos, "%s requires int operands, got %s and %s", x.Op, lt.Name, rt.Name)
			}
			return c.setType(e, Type{"bool"}), nil
		case "&&", "||":
			if lt.Name != "bool" || rt.Name != "bool" {
				return Type{}, c.errf(x.Pos, "%s requires bool operands, got %s and %s", x.Op, lt.Name, rt.Name)
			}
			return c.setType(e, Type{"bool"}), nil
		case "==", "!=":
			if lt.Name != rt.Name && lt.Name != "null" && rt.Name != "null" {
				return Type{}, c.errf(x.Pos, "%s requires matching operand types, got %s and %s", x.Op, lt.Name, rt.Name)
			}
			return c.setType(e, Type{"bool"}), nil
		}
		return Type{}, c.errf(x.Pos, "unknown operator %q", x.Op)
	}
	return Type{}, fmt.Errorf("lang: unknown expression %T", e)
}
