package lang

import "sync"

// Type is a core-language type: int and bool are scalars; machine and class
// names are reference types (paper Section 4: "the type of each variable is
// either scalar ... or a reference type").
type Type struct {
	// Name is "int", "bool", "machine", or a class name.
	Name string
}

// IsScalar reports whether values of the type are passed by value. Machine
// identifiers are scalar handles (sending one does not transfer ownership
// of heap data).
func (t Type) IsScalar() bool {
	return t.Name == "int" || t.Name == "bool" || t.Name == "machine"
}

// IsRef reports whether the type is a heap reference type.
func (t Type) IsRef() bool { return !t.IsScalar() }

// Program is a parsed compilation unit.
type Program struct {
	Events   []*EventDecl
	Classes  []*ClassDecl
	Machines []*MachineDecl
	// Monitors are specification monitor declarations: machine-shaped
	// (fields, methods, states with hot/cold annotations) but passive — the
	// checker forbids send and create in their bodies, and the interpreter
	// dispatches observed program events to them synchronously instead of
	// scheduling them. They are not part of Machines: the static analysis
	// analyzes only the program proper.
	Monitors []*MachineDecl

	// Symbol tables filled by Check.
	ClassByName   map[string]*ClassDecl
	MachineByName map[string]*MachineDecl
	MonitorByName map[string]*MachineDecl
	EventByName   map[string]*EventDecl

	// aux carries derived, per-Program artifacts computed lazily by other
	// packages (e.g. the interpreter's compiled dispatch schemas), so a
	// cache's lifetime is tied to the Program instead of a process-global
	// map that would pin every loaded Program forever.
	aux sync.Map
}

// AuxLoad returns the auxiliary artifact stored under key, if any.
func (p *Program) AuxLoad(key any) (any, bool) { return p.aux.Load(key) }

// AuxStore records an auxiliary artifact under key; see AuxLoad. Callers
// wanting compute-once semantics must serialize their own compute path.
func (p *Program) AuxStore(key, value any) { p.aux.Store(key, value) }

// EventDecl declares an event name.
type EventDecl struct {
	Name string
	Pos  Pos
	// Index, set by Check, is the event's position in Program.Events.
	Index int
}

// VarDecl declares a member field, local variable or formal parameter.
type VarDecl struct {
	Name string
	Type Type
	Pos  Pos
	// Index, set by Check, is a field's position among its holder's Fields
	// and a parameter's or local's position in its method's Vars.
	Index int
}

// MethodDecl declares a method: formal parameters, optional result type,
// local declarations and a statement body.
type MethodDecl struct {
	Name   string
	Params []*VarDecl
	Result *Type // nil for void
	Body   []Stmt
	Pos    Pos
	// Index, set by Check, is the method's position among its holder's
	// Methods (a state's EntryMethod is in no list and keeps 0).
	Index int
	// Vars, set by Check, lists the frame: the parameters, then every local
	// of the body in source order (locals have method-wide scope).
	Vars []*VarDecl
}

// ClassDecl declares a plain data class.
type ClassDecl struct {
	Name    string
	Fields  []*VarDecl
	Methods []*MethodDecl
	Pos     Pos
	// Index, set by Check, is the class's position in Program.Classes.
	Index int

	FieldByName  map[string]*VarDecl
	MethodByName map[string]*MethodDecl
}

// MachineDecl declares a machine: fields, methods, and states. A machine is
// also a class (its methods are analyzed the same way); states bind events
// to methods or transitions. Monitor declarations reuse this node with
// IsMonitor set.
type MachineDecl struct {
	Name    string
	Fields  []*VarDecl
	Methods []*MethodDecl
	States  []*StateDecl
	// IsMonitor marks a specification monitor declaration ("monitor M").
	IsMonitor bool
	Pos       Pos
	// Index, set by Check, is the declaration's position in
	// Program.Machines, or in Program.Monitors for a monitor.
	Index int

	FieldByName  map[string]*VarDecl
	MethodByName map[string]*MethodDecl
	StateByName  map[string]*StateDecl
	StartState   *StateDecl
}

// StateDecl declares one machine state.
type StateDecl struct {
	Name  string
	Start bool
	// Hot and Cold are liveness temperature annotations ("hot state S",
	// "cold state S"); only monitor states may carry them.
	Hot     bool
	Cold    bool
	Entry   []Stmt            // entry block (may be nil)
	OnDo    map[string]string // event -> method
	OnGoto  map[string]string // event -> state
	Defers  map[string]bool
	Ignores map[string]bool
	Pos     Pos
	// Index, set by Check, is the state's position among its machine's
	// States.
	Index int
	// EntryMethod, set by Check when Entry is not nil, is the entry block as
	// a parameterless method named "$entry_<state>".
	EntryMethod *MethodDecl
}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// LocalDecl declares a local variable (value undefined until assigned).
type LocalDecl struct {
	Decl *VarDecl
}

// AssignStmt assigns Expr to a local variable or a field of this.
type AssignStmt struct {
	// Target is the local variable name; empty if ToField is set.
	Target string
	// ToField is the field of this being assigned, if any.
	ToField string
	Value   Expr
	Pos     Pos
	// Decl, set by Check, is the assigned variable's or field's declaration.
	Decl *VarDecl
}

// ExprStmt evaluates an expression for its side effects (a call).
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// SendStmt sends an event with an optional payload: send dst, evt, payload;
type SendStmt struct {
	Dst     Expr
	Event   string
	Payload Expr // nil if none
	Pos     Pos
}

// ReturnStmt returns from a method.
type ReturnStmt struct {
	Value Expr // nil for void return
	Pos   Pos
}

// IfStmt is a conditional.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // nil if absent
	Pos  Pos
}

// WhileStmt is a loop.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
	Pos  Pos
}

// AssertStmt checks a boolean condition at run time.
type AssertStmt struct {
	Cond Expr
	Pos  Pos
}

// RaiseStmt transitions the machine by raising an event to itself... not in
// the core calculus; provided for completeness of the interp and ignored by
// the analysis (the payload, if any, is treated like a send payload).
type RaiseStmt struct {
	Event   string
	Payload Expr
	Pos     Pos
}

func (*LocalDecl) stmtNode()  {}
func (*AssignStmt) stmtNode() {}
func (*ExprStmt) stmtNode()   {}
func (*SendStmt) stmtNode()   {}
func (*ReturnStmt) stmtNode() {}
func (*IfStmt) stmtNode()     {}
func (*WhileStmt) stmtNode()  {}
func (*AssertStmt) stmtNode() {}
func (*RaiseStmt) stmtNode()  {}

// Expr is an expression node.
type Expr interface {
	exprNode()
	// TypeOf returns the checked type (valid after Check).
	TypeOf() Type
}

type exprBase struct{ typ Type }

func (e *exprBase) exprNode()    {}
func (e *exprBase) TypeOf() Type { return e.typ }

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Value int64
	Pos   Pos
}

// BoolLit is true or false.
type BoolLit struct {
	exprBase
	Value bool
	Pos   Pos
}

// NullLit is the null reference.
type NullLit struct {
	exprBase
	Pos Pos
}

// VarRef names a local variable or formal parameter.
type VarRef struct {
	exprBase
	Name string
	Pos  Pos
	Decl *VarDecl // set by Check
}

// ThisRef is the receiver reference.
type ThisRef struct {
	exprBase
	Pos Pos
}

// FieldRef reads a field of this: this.f.
type FieldRef struct {
	exprBase
	Field string
	Pos   Pos
	Decl  *VarDecl // set by Check
}

// NewExpr allocates a class instance: new C.
type NewExpr struct {
	exprBase
	Class string
	Pos   Pos
}

// CreateExpr creates a machine instance: create M(payload?). Ownership of
// the payload transfers, exactly like a send.
type CreateExpr struct {
	exprBase
	Machine string
	Payload Expr // nil if none
	Pos     Pos
}

// CallExpr invokes a method: recv.m(args). Recv is a VarRef or ThisRef.
type CallExpr struct {
	exprBase
	Recv   Expr
	Method string
	Args   []Expr
	Pos    Pos
	Decl   *MethodDecl // the callee, set by Check
}

// UnaryExpr is !x or -x.
type UnaryExpr struct {
	exprBase
	Op  string
	X   Expr
	Pos Pos
}

// BinaryExpr is a binary scalar operation.
type BinaryExpr struct {
	exprBase
	Op   string
	L, R Expr
	Pos  Pos
}
