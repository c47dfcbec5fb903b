package interp

// Bytecode compilation: each checked Program's machine, monitor and class
// bodies are lowered once into compact stack-machine code (a flat []Instr
// with an operand stack and a constant pool), cached on the Program via
// AuxLoad/AuxStore alongside the compiled dispatch schemas, and shared
// read-only by every Run call and seed. Every name the tree-walker resolves
// through a map at dispatch time — locals, fields, events, states, methods,
// classes, machines — is an operand here: the Index lang.Check gave its
// declaration, and each frame is the checked method's Vars.
//
// The compiler builds on schemasFor: per-state dispatch precedence
// (do < goto < defer < ignore) is inherited from the compiled schemas by
// construction, then flattened into event-indexed arrays.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/psharp-go/psharp/lang"
)

// Opcode is one VM operation.
type Opcode uint8

// The instruction set. Operands live in Instr.A/B; Instr.Pos indexes the
// program's interned source-position strings for ops that can fault.
const (
	opPushInt   Opcode = iota // push Int(A)
	opPushConst               // push consts[A] (int literals outside int32)
	opPushTrue
	opPushFalse
	opPushNull
	opPop
	opLoadLocal   // push frame[A]; error if undefined (Pos)
	opStoreLocal  // frame[A] = pop
	opDeclLocal   // frame[A] = zero value of kind B
	opLoadMField  // push machine field A
	opStoreMField // machine field A = pop
	opLoadOField  // push this-object field A (race-detector read)
	opStoreOField // this-object field A = pop (race-detector write)
	opJump        // pc = A
	opJumpFalse   // pc = A if !pop
	opJumpTrue    // pc = A if pop
	opNot
	opNeg
	opAdd
	opSub
	opMul
	opDiv // Pos: division by zero
	opMod // Pos: modulo by zero
	opLt
	opLe
	opGt
	opGe
	opEq
	opNe
	opLoopCheck // hidden counter frame[A]: fail after 1e6 iterations (Pos)
	opAssert    // fail unless pop is true (Pos)
	opSend      // send event A to machine pop (payload pre-popped if B); Pos
	opRaise     // raise event A (payload popped if B); ends the block
	opReturn    // return (value popped if A); ends the block
	opCallSelf  // call own machine/class method A; args on stack
	opCheckRecv // verify stack top is a Ref whose class has method name A (Pos)
	opCallObj   // call method name A on object below the B args on stack
	opCreate    // push id of a new machine A instance (runs its entry)
	opNew       // push Ref to a new class A instance
	opBadThis   // fault: bare this used as a value (Pos)

	// Fused superinstructions, produced by the peephole pass (fuseCode).
	// Each is exactly the two-instruction sequence it replaces; in every
	// fusion only the load-local half can fault, so the fused Pos is that
	// half's position and messages stay walker-identical.
	opStoreLoad     // frame[A] = pop, then push frame[B] (undefined: Pos)
	opMFieldToLocal // frame[B] = machine field A
	opLocalToMField // machine field B = frame[A] (undefined: Pos)
	opLoadPushInt   // push frame[A] (undefined: Pos), then push Int(B)
	opEqInt         // replace top with top == Int(A)
	opDecl2         // declare locals A&mask/A>>declShift and B&mask/B>>declShift
	opLoad2         // push frame[A&mask] (undefined: B) and frame[A>>loadShift] (undefined: Pos)
	opCallMethod    // fused zero-arg opCheckRecv + opCallObj on method name A (Pos)
	opIntToMField   // machine field B = Int(A)
	opMFieldPushInt // push machine field A, then Int(B)
	opCmpJF         // comparison B (an Opcode; faults at Pos) + jump to A if false
	opAssertCmp     // comparison B (an Opcode; faults at A) + assert (fails at Pos)

	// Second-pass fusions: one half is itself a fused op, so these only
	// form once the first pass has run (fuseCode iterates to a fixpoint).
	// Operands that no longer fit the three instruction fields live in the
	// code's aux table, indexed by B.
	opSendLL             // send: dst frame[A&mask], payload frame[A>>loadShift]; aux[B] = loadPos1, loadPos2, event; Pos = send
	opAddToMField        // machine field A = pop + pop (non-int: Pos)
	opLocalCallMethod    // call method name A>>loadShift on object frame[A&mask] (undefined: B; call faults: Pos)
	opLocalToOField      // object field B = frame[A] (undefined: Pos); race-checked write
	opMFieldAddInt       // push machine field A + Int(B) (non-int field: Pos)
	opLIntCmpJF          // aux[B] = slot, k, cmp Opcode, cmpPos: jump to A unless frame[slot] cmp Int(k) (undefined: Pos)
	opStoreRetLocal      // frame[A] = pop, then return frame[B] (undefined: Pos)
	opDeclLoadOField     // declare local A&mask/A>>declShift, then push object field B (race-detector read)
	opRetOField          // return object field A (race-detector read) -- a collapsed getter body
	opMFSendLL           // frame[aux[B+4]] = machine field aux[B+3], then the opSendLL body
	opMFAddIntToMF       // machine field A>>loadShift = machine field A&mask + Int(B) (non-int: Pos)
	opCallObjVoid        // opCallObj with the null result discarded (fused trailing pop)
	opMF2L2              // frame[A>>loadShift] = machine field A&mask; frame[B>>loadShift] = machine field B&mask
	opDecl2MF2L          // opDecl2 for A and aux[B], then frame[aux[B+2]] = machine field aux[B+1]
	opNewStoreLoad       // frame[A>>loadShift] = new object of class A&mask, then push frame[B] (undefined: Pos)
	opCreateStore        // frame[B] = create machine A (create faults: Pos)
	opSendLL2            // two opSendLL bodies back to back; operands in aux[B:B+10]
	opLIntCmpJFL2MF      // opLIntCmpJF (aux[B:B+4], undefined: Pos) falling through into local-to-machine-field aux[B+4:B+7]
	opMFIntAssert        // assert machine field aux[B] cmp aux[B+2] Int(aux[B+1]) (non-int: aux[B+3]; failure: Pos)
	opL2OF2              // two race-checked object-field stores from locals; operands in aux[B:B+6]
	opDecl3              // declare three locals: packed pairs in A, B, and Pos (Pos holds an operand, not a position)
	opLAddIntToMF        // machine field aux[B+3] = frame[aux[B]] + Int(aux[B+1]) (undefined: aux[B+2]; non-int: aux[B+4])
	opLocalCallMethodSL  // opLocalCallMethod, then store the result and load aux[B+2] (storeload aux[B+1:B+4])
	opCallMethodSL       // opCallMethod, then store the result and load aux[B+1] (storeload aux[B:B+3])
	opLoopLIntCmpJF      // loop head: bound-check counter aux[B]/aux[B+1], then opLIntCmpJF over aux[B+2:B+6]
	opStoreJump          // frame[B] = pop, then jump to A (a loop body's closing store)
	opSendLI             // send event aux[B+2] to machine frame[aux[B]] with Int(aux[B+1]) payload (undefined: aux[B+3])
	opLIntAssert         // assert frame[aux[B]] cmp aux[B+2] Int(aux[B+1]) (undefined: aux[B+4]; non-int: aux[B+3]; failure: Pos)
	opCheckRecvPushInt   // opCheckRecv for method A, then push Int(B)
	opMFIntCmpJF         // jump to A unless machine field aux[B] cmp aux[B+2] Int(aux[B+1]) (non-int: aux[B+3])
	opLIntCmpJFMF2L      // opLIntCmpJF (aux[B:B+4], undefined: Pos) falling through into machine-field-to-local aux[B+4:B+6]
	opPushIntCallObjVoid // push Int(B) as the sole argument, then opCallObjVoid for method A
)

// isCmp reports whether op is a binary comparison eligible for fusing with
// a following opJumpFalse or opAssert.
func isCmp(op Opcode) bool {
	switch op {
	case opLt, opLe, opGt, opGe, opEq, opNe:
		return true
	}
	return false
}

// Operand packing for the fused declaration and load pairs: opDecl2 packs
// slot and zero kind per operand, opLoad2 packs both slots into A so B and
// Pos can carry each load's fault position.
const (
	declShift = 24
	declMask  = 1<<declShift - 1
	loadShift = 16
	loadMask  = 1<<loadShift - 1
)

var opNames = [...]string{
	opPushInt: "pushint", opPushConst: "pushconst", opPushTrue: "pushtrue",
	opPushFalse: "pushfalse", opPushNull: "pushnull", opPop: "pop",
	opLoadLocal: "loadlocal", opStoreLocal: "storelocal", opDeclLocal: "decllocal",
	opLoadMField: "loadmfield", opStoreMField: "storemfield",
	opLoadOField: "loadofield", opStoreOField: "storeofield",
	opJump: "jump", opJumpFalse: "jumpfalse", opJumpTrue: "jumptrue",
	opNot: "not", opNeg: "neg", opAdd: "add", opSub: "sub", opMul: "mul",
	opDiv: "div", opMod: "mod", opLt: "lt", opLe: "le", opGt: "gt", opGe: "ge",
	opEq: "eq", opNe: "ne", opLoopCheck: "loopcheck", opAssert: "assert",
	opSend: "send", opRaise: "raise", opReturn: "return",
	opCallSelf: "callself", opCheckRecv: "checkrecv", opCallObj: "callobj",
	opCreate: "create", opNew: "new", opBadThis: "badthis",
	opStoreLoad: "storeload", opMFieldToLocal: "mfield2local",
	opLocalToMField: "local2mfield", opLoadPushInt: "loadpushint",
	opEqInt: "eqint", opDecl2: "decl2", opLoad2: "load2",
	opCallMethod: "callmethod", opIntToMField: "int2mfield",
	opMFieldPushInt: "mfieldpushint", opCmpJF: "cmpjumpfalse",
	opAssertCmp: "assertcmp", opSendLL: "sendll", opAddToMField: "add2mfield",
	opLocalCallMethod: "localcallmethod", opLocalToOField: "local2ofield",
	opMFieldAddInt: "mfieldaddint", opLIntCmpJF: "lintcmpjumpfalse",
	opStoreRetLocal: "storeretlocal", opDeclLoadOField: "declloadofield",
	opRetOField: "retofield", opMFSendLL: "mfsendll",
	opMFAddIntToMF: "mfaddint2mf", opCallObjVoid: "callobjvoid",
	opMF2L2: "mfield2local2", opDecl2MF2L: "decl2mfield2local",
	opNewStoreLoad: "newstoreload", opCreateStore: "createstore",
	opSendLL2: "sendll2", opLIntCmpJFL2MF: "lintcmpjf2mfield",
	opMFIntAssert: "mfintassert", opL2OF2: "local2ofield2",
	opDecl3: "decl3", opLAddIntToMF: "laddint2mf",
	opLocalCallMethodSL: "localcallmethodsl", opCallMethodSL: "callmethodsl",
	opLoopLIntCmpJF: "looplintcmpjf", opStoreJump: "storejump",
	opSendLI: "sendli", opLIntAssert: "lintassert",
	opCheckRecvPushInt: "checkrecvpushint", opMFIntCmpJF: "mfintcmpjf",
	opLIntCmpJFMF2L: "lintcmpjf2local", opPushIntCallObjVoid: "pushintcallobjvoid",
}

func (op Opcode) String() string { return opNames[op] }

// opSymbol maps an arithmetic/comparison opcode back to its source operator
// for the walker-identical "requires integers" fault message.
func opSymbol(op Opcode) string {
	switch op {
	case opAdd:
		return "+"
	case opSub:
		return "-"
	case opMul:
		return "*"
	case opDiv:
		return "/"
	case opMod:
		return "%"
	case opLt:
		return "<"
	case opLe:
		return "<="
	case opGt:
		return ">"
	case opGe:
		return ">="
	}
	return op.String()
}

// Instr is one fixed-width instruction.
type Instr struct {
	Op   Opcode
	A, B int32
	// Pos indexes compiledProgram.poss (-1 when the op cannot fault).
	Pos int32
}

// compiledCode is one executable unit: a method body or a state entry block.
// Locals (parameters first) live in dense frame slots.
type compiledCode struct {
	name    string
	machine *compiledMachine // declaring machine/monitor; nil for class code
	class   *compiledClass   // declaring class; nil for machine code
	ins     []Instr
	nparams int
	nlocals int
	// localNames names each slot for faults and disassembly; hidden loop
	// counters are "".
	localNames []string
	// payloadZero substitutes for a missing event payload when this code is
	// a one-parameter handler.
	payloadZero vval
	// maxstack bounds the operand-stack depth this frame can reach (each
	// instruction pushes at most one value); frame prologues reserve it so
	// the push fast path never grows the stack.
	maxstack int
	// aux holds overflow operands for second-pass superinstructions whose
	// combined operands no longer fit one Instr (indexed by the Instr's B).
	aux []int32
	// accessor is the object-field index when the whole body collapsed to a
	// single opRetOField (a getter); call sites then read the field directly
	// instead of pushing a frame. -1 otherwise.
	accessor int32
	// needsClear marks a body where some local slot's first reference in
	// code order is a read: only then must the frame be zeroed on entry so
	// the slot reads as undefined. Structured lowering means a declaration
	// always executes before any in-scope use, so for nearly every body the
	// per-call memclr can be skipped (parameter slots are always written by
	// the caller, or explicitly cleared on a class-confused short call).
	needsClear bool
}

// vdispatch is one event-indexed dispatch cell (compare dispatchEntry: the
// method and target are compiled, and the event is the array index).
type vdispatch struct {
	kind   dispatchKind
	method *compiledCode
	target *compiledState
}

// compiledState mirrors stateSchema with the dispatch map flattened to an
// event-indexed array.
type compiledState struct {
	decl     *lang.StateDecl
	hot      bool
	entry    *compiledCode // nil when the state has no entry block
	dispatch []vdispatch   // indexed by EventDecl.Index
}

// compiledMachine is the bytecode form of one machine or monitor
// declaration.
type compiledMachine struct {
	decl      *lang.MachineDecl
	fieldZero []vval // initial field values, copied per instance
	states    []*compiledState
	start     *compiledState
	methods   []*compiledCode
}

// compiledClass is the bytecode form of one class declaration.
type compiledClass struct {
	decl       *lang.ClassDecl
	fieldZero  []vval
	fieldNames []string // race-detector location names
	methods    []*compiledCode
	// byName resolves an interned method name to this class's method, or
	// nil. Receiver classes are dynamic (event payloads are untyped, so a
	// handler parameter's runtime class may differ from its declared one),
	// and the walker resolves methods on the runtime class — this table
	// keeps that lookup a single array index.
	byName []*compiledCode
}

// compiledProgram is one Program's complete bytecode: shared, immutable
// after construction, plus a pool of recycled VM run states.
type compiledProgram struct {
	events      []string
	machines    []*compiledMachine
	monitors    []*compiledMachine
	classes     []*compiledClass
	consts      []vval
	poss        []string
	methodNames []string
	pool        sync.Pool
	// mainCache remembers the last entry-machine lookup: nearly every Run
	// of a Program starts the same machine, and at ~1us-per-schedule the
	// per-run string-map probe is measurable.
	mainCache atomic.Pointer[mainEntry]
}

// mainEntry is one cached entry-machine resolution.
type mainEntry struct {
	name string
	cm   *compiledMachine
}

// bytecodeKey keys the cached bytecode in a Program's auxiliary store.
type bytecodeKey struct{}

var (
	// bytecodeMu serializes first-use compilation so each Program's
	// bytecode is built exactly once even under concurrent Run calls.
	bytecodeMu sync.Mutex
	// bytecodeCompiles counts program bytecode compilations; the
	// compile-once test observes it.
	bytecodeCompiles atomic.Int64
)

// compiledFor returns prog's bytecode, compiling it exactly once per loaded
// Program. Safe for concurrent Run calls over the same Program.
func compiledFor(prog *lang.Program) *compiledProgram {
	if v, ok := prog.AuxLoad(bytecodeKey{}); ok {
		return v.(*compiledProgram)
	}
	bytecodeMu.Lock()
	defer bytecodeMu.Unlock()
	if v, ok := prog.AuxLoad(bytecodeKey{}); ok {
		return v.(*compiledProgram)
	}
	cp := compileProgram(prog)
	prog.AuxStore(bytecodeKey{}, cp)
	return cp
}

// Unboxed zero values per declared type, indexed by zkind.
var zeroByKind = [...]vval{
	{kind: vInt},
	{kind: vBool},
	{n: -1, kind: vMachine}, // the walker's MachineID(-1) zero
	{kind: vNull},
}

const (
	zkindInt int32 = iota
	zkindBool
	zkindMachine
	zkindNull
)

func zkindOf(t lang.Type) int32 {
	switch t.Name {
	case "int":
		return zkindInt
	case "bool":
		return zkindBool
	case "machine":
		return zkindMachine
	default:
		return zkindNull
	}
}

func zeroFields(fields []*lang.VarDecl) []vval {
	out := make([]vval, len(fields))
	for i, f := range fields {
		out[i] = zeroByKind[zkindOf(f.Type)]
	}
	return out
}

// compiler lowers one checked Program. Compilation cannot fail on checker
// output; an unknown AST node is an internal inconsistency and panics.
type compiler struct {
	prog          *lang.Program
	cp            *compiledProgram
	posIdx        map[string]int32
	constIdx      map[int64]int32
	methodNameIdx map[string]int32
}

func compileProgram(prog *lang.Program) *compiledProgram {
	ps := schemasFor(prog)
	cp := &compiledProgram{}
	for _, e := range prog.Events {
		cp.events = append(cp.events, e.Name)
	}
	c := &compiler{
		prog:          prog,
		cp:            cp,
		posIdx:        make(map[string]int32),
		constIdx:      make(map[int64]int32),
		methodNameIdx: make(map[string]int32),
	}
	for _, cd := range prog.Classes {
		cc := &compiledClass{decl: cd, fieldZero: zeroFields(cd.Fields)}
		for _, f := range cd.Fields {
			cc.fieldNames = append(cc.fieldNames, f.Name)
		}
		cp.classes = append(cp.classes, cc)
	}
	for _, md := range prog.Machines {
		cp.machines = append(cp.machines, &compiledMachine{decl: md, fieldZero: zeroFields(md.Fields)})
	}
	for _, md := range prog.Monitors {
		cp.monitors = append(cp.monitors, &compiledMachine{decl: md, fieldZero: zeroFields(md.Fields)})
	}
	for i, cd := range prog.Classes {
		cc := cp.classes[i]
		for _, meth := range cd.Methods {
			cc.methods = append(cc.methods, c.lower(cd.Name+"."+meth.Name, meth, nil, cc))
		}
	}
	for i, md := range prog.Machines {
		c.compileMachine(cp.machines[i], ps.machines[md])
	}
	for i, md := range prog.Monitors {
		c.compileMachine(cp.monitors[i], ps.monitors[md])
	}
	// Dynamic-dispatch tables: every method name interned at any call site,
	// resolvable per class with one index.
	for i, cd := range prog.Classes {
		cc := cp.classes[i]
		cc.byName = make([]*compiledCode, len(cp.methodNames))
		for ni, name := range cp.methodNames {
			if md, ok := cd.MethodByName[name]; ok {
				cc.byName[ni] = cc.methods[md.Index]
			}
		}
	}
	cp.pool.New = func() any { return newVMState(cp) }
	bytecodeCompiles.Add(1)
	return cp
}

// compileMachine lowers one machine/monitor's methods, entry blocks and
// dispatch tables. The dispatch cells come from the already-merged schema
// maps, so the walker's precedence is inherited, not re-derived.
func (c *compiler) compileMachine(cm *compiledMachine, ms *machineSchema) {
	md := cm.decl
	for _, meth := range md.Methods {
		cm.methods = append(cm.methods, c.lower(md.Name+"."+meth.Name, meth, cm, nil))
	}
	cm.states = make([]*compiledState, len(md.States))
	for i, sd := range md.States {
		cs := &compiledState{decl: sd, hot: sd.Hot}
		if sd.EntryMethod != nil {
			cs.entry = c.lower(md.Name+"."+sd.Name+".entry", sd.EntryMethod, cm, nil)
		}
		cm.states[i] = cs
	}
	nev := len(c.cp.events)
	for i, sd := range md.States {
		ss := ms.states[sd.Name]
		d := make([]vdispatch, nev)
		for evt, e := range ss.dispatch {
			vd := vdispatch{kind: e.kind}
			if e.method != nil {
				vd.method = cm.methods[e.method.Index]
			}
			if e.target != nil {
				vd.target = cm.states[e.target.decl.Index]
			}
			d[c.event(evt)] = vd
		}
		cm.states[i].dispatch = d
	}
	cm.start = cm.states[md.StartState.Index]
}

// lower compiles one checked method or state entry block. Its frame is the
// checker's: slot i holds meth.Vars[i] (parameters first), and hidden loop
// counters follow.
func (c *compiler) lower(name string, meth *lang.MethodDecl, cm *compiledMachine, cc *compiledClass) *compiledCode {
	code := &compiledCode{name: name, machine: cm, class: cc, nparams: len(meth.Params)}
	for _, d := range meth.Vars {
		code.localNames = append(code.localNames, d.Name)
	}
	if len(meth.Params) == 1 {
		code.payloadZero = zeroByKind[zkindOf(meth.Params[0].Type)]
	}
	g := &gen{c: c, code: code}
	g.stmts(meth.Body)
	code.nlocals = len(code.localNames)
	written := make([]bool, code.nlocals)
	for i := 0; i < code.nparams; i++ {
		written[i] = true
	}
	for _, in := range code.ins {
		switch in.Op {
		case opLoadLocal, opLoopCheck:
			if !written[in.A] {
				code.needsClear = true
			}
		case opStoreLocal, opDeclLocal:
			written[in.A] = true
		}
	}
	// The depth bound is computed before fusion: fusion only ever merges two
	// instructions that pushed at most one value each, so the pre-fusion
	// bound stays conservative for the shorter stream.
	code.maxstack = len(code.ins) + 1
	fuseCode(code)
	code.accessor = -1
	if len(code.ins) == 1 && code.ins[0].Op == opRetOField && code.nparams == 0 {
		code.accessor = code.ins[0].A
	}
	return code
}

// fuseCode is the peephole pass: it rewrites frequent two-instruction
// sequences into single superinstructions, halving dispatch overhead on the
// hottest local/field traffic. A pair is only fused when its second
// instruction is not a jump target (a jump into the middle of a pair would
// skip half its effect); jump operands are remapped onto the shorter
// stream afterwards. The pass repeats to a fixpoint so pairs whose halves
// are themselves fusions (load2+send, loadpushint+cmpjumpfalse, ...) fold
// too.
func fuseCode(code *compiledCode) {
	for fusePass(code) {
	}
}

func fusePass(code *compiledCode) bool {
	ins := code.ins
	isTarget := make([]bool, len(ins)+1)
	for _, in := range ins {
		switch in.Op {
		case opJump, opJumpFalse, opJumpTrue, opCmpJF, opLIntCmpJF, opLIntCmpJFL2MF,
			opLoopLIntCmpJF, opStoreJump, opMFIntCmpJF, opLIntCmpJFMF2L:
			isTarget[in.A] = true
		}
	}
	fused := false
	newpc := make([]int32, len(ins)+1)
	j := 0
	for i := 0; i < len(ins); {
		newpc[i] = int32(j)
		if i+1 < len(ins) && !isTarget[i+1] {
			a, b := ins[i], ins[i+1]
			var f Instr
			switch {
			case a.Op == opStoreLocal && b.Op == opLoadLocal:
				f = Instr{Op: opStoreLoad, A: a.A, B: b.A, Pos: b.Pos}
			case a.Op == opLoadMField && b.Op == opStoreLocal:
				f = Instr{Op: opMFieldToLocal, A: a.A, B: b.A, Pos: -1}
			case a.Op == opLoadLocal && b.Op == opStoreMField:
				f = Instr{Op: opLocalToMField, A: a.A, B: b.A, Pos: a.Pos}
			case a.Op == opLoadLocal && b.Op == opPushInt:
				f = Instr{Op: opLoadPushInt, A: a.A, B: b.A, Pos: a.Pos}
			case a.Op == opPushInt && b.Op == opEq:
				f = Instr{Op: opEqInt, A: a.A, Pos: -1}
			case a.Op == opDeclLocal && b.Op == opDeclLocal &&
				a.A <= declMask && b.A <= declMask:
				f = Instr{Op: opDecl2, A: a.A | a.B<<declShift, B: b.A | b.B<<declShift, Pos: -1}
			case a.Op == opLoadLocal && b.Op == opLoadLocal &&
				a.A <= loadMask && b.A <= loadMask:
				f = Instr{Op: opLoad2, A: a.A | b.A<<loadShift, B: a.Pos, Pos: b.Pos}
			case a.Op == opCheckRecv && b.Op == opCallObj && a.A == b.A && b.B == 0:
				// Adjacency implies a zero-argument call: the compiler pushes
				// arguments between the receiver check and the call.
				f = Instr{Op: opCallMethod, A: b.A, B: 0, Pos: b.Pos}
			case a.Op == opPushInt && b.Op == opStoreMField:
				f = Instr{Op: opIntToMField, A: a.A, B: b.A, Pos: -1}
			case a.Op == opLoadMField && b.Op == opPushInt:
				f = Instr{Op: opMFieldPushInt, A: a.A, B: b.A, Pos: -1}
			case isCmp(a.Op) && b.Op == opJumpFalse:
				f = Instr{Op: opCmpJF, A: b.A, B: int32(a.Op), Pos: a.Pos}
			case isCmp(a.Op) && b.Op == opAssert:
				f = Instr{Op: opAssertCmp, A: a.Pos, B: int32(a.Op), Pos: b.Pos}
			case a.Op == opAdd && b.Op == opStoreMField:
				f = Instr{Op: opAddToMField, A: b.A, Pos: a.Pos}
			case a.Op == opLoadLocal && b.Op == opStoreOField:
				f = Instr{Op: opLocalToOField, A: a.A, B: b.A, Pos: a.Pos}
			case a.Op == opLoad2 && b.Op == opSend && b.B == 1:
				f = Instr{Op: opSendLL, A: a.A, B: int32(len(code.aux)), Pos: b.Pos}
				code.aux = append(code.aux, a.B, a.Pos, b.A)
			case a.Op == opLoadLocal && b.Op == opCallMethod &&
				a.A <= loadMask && b.A <= loadMask:
				f = Instr{Op: opLocalCallMethod, A: a.A | b.A<<loadShift, B: a.Pos, Pos: b.Pos}
			case a.Op == opMFieldPushInt && b.Op == opAdd:
				f = Instr{Op: opMFieldAddInt, A: a.A, B: a.B, Pos: b.Pos}
			case a.Op == opLoadPushInt && b.Op == opCmpJF:
				f = Instr{Op: opLIntCmpJF, A: b.A, B: int32(len(code.aux)), Pos: a.Pos}
				code.aux = append(code.aux, a.A, a.B, b.B, b.Pos)
			case a.Op == opStoreLoad && b.Op == opReturn && b.A == 1:
				f = Instr{Op: opStoreRetLocal, A: a.A, B: a.B, Pos: a.Pos}
			case a.Op == opDeclLocal && b.Op == opLoadOField && a.A <= declMask:
				f = Instr{Op: opDeclLoadOField, A: a.A | a.B<<declShift, B: b.A, Pos: -1}
			case a.Op == opDeclLoadOField && b.Op == opStoreRetLocal &&
				a.A&declMask == b.A && b.A == b.B:
				// The canonical getter body: declare a local, copy an object
				// field into it, return it. The local is written immediately
				// before being returned, so it can never be undefined and the
				// frame traffic is unobservable; only the race-detector read
				// and the returned value remain.
				f = Instr{Op: opRetOField, A: a.B, Pos: -1}
			case a.Op == opMFieldToLocal && b.Op == opSendLL:
				f = Instr{Op: opMFSendLL, A: b.A, B: int32(len(code.aux)), Pos: b.Pos}
				code.aux = append(code.aux,
					code.aux[b.B], code.aux[b.B+1], code.aux[b.B+2], a.A, a.B)
			case a.Op == opMFieldPushInt && b.Op == opAddToMField &&
				a.A <= loadMask && b.A <= loadMask:
				f = Instr{Op: opMFAddIntToMF, A: a.A | b.A<<loadShift, B: a.B, Pos: b.Pos}
			case a.Op == opCallObj && b.Op == opPop:
				f = Instr{Op: opCallObjVoid, A: a.A, B: a.B, Pos: a.Pos}
			case a.Op == opMFieldToLocal && b.Op == opMFieldToLocal &&
				a.A <= loadMask && a.B <= loadMask && b.A <= loadMask && b.B <= loadMask:
				f = Instr{Op: opMF2L2, A: a.A | a.B<<loadShift, B: b.A | b.B<<loadShift, Pos: -1}
			case a.Op == opDecl2 && b.Op == opMFieldToLocal:
				f = Instr{Op: opDecl2MF2L, A: a.A, B: int32(len(code.aux)), Pos: -1}
				code.aux = append(code.aux, a.B, b.A, b.B)
			case a.Op == opNew && b.Op == opStoreLoad && a.A <= loadMask && b.A <= loadMask:
				f = Instr{Op: opNewStoreLoad, A: a.A | b.A<<loadShift, B: b.B, Pos: b.Pos}
			case a.Op == opCreate && b.Op == opStoreLocal:
				f = Instr{Op: opCreateStore, A: a.A, B: b.A, Pos: a.Pos}
			case a.Op == opSendLL && b.Op == opSendLL:
				f = Instr{Op: opSendLL2, B: int32(len(code.aux)), Pos: b.Pos}
				code.aux = append(code.aux,
					a.A, code.aux[a.B], code.aux[a.B+1], code.aux[a.B+2], a.Pos,
					b.A, code.aux[b.B], code.aux[b.B+1], code.aux[b.B+2], b.Pos)
			case a.Op == opLIntCmpJF && b.Op == opLocalToMField:
				f = Instr{Op: opLIntCmpJFL2MF, A: a.A, B: int32(len(code.aux)), Pos: a.Pos}
				code.aux = append(code.aux,
					code.aux[a.B], code.aux[a.B+1], code.aux[a.B+2], code.aux[a.B+3],
					b.A, b.B, b.Pos)
			case a.Op == opMFieldPushInt && b.Op == opAssertCmp:
				f = Instr{Op: opMFIntAssert, B: int32(len(code.aux)), Pos: b.Pos}
				code.aux = append(code.aux, a.A, a.B, b.B, b.A)
			case a.Op == opLocalToOField && b.Op == opLocalToOField:
				f = Instr{Op: opL2OF2, B: int32(len(code.aux)), Pos: -1}
				code.aux = append(code.aux, a.A, a.B, a.Pos, b.A, b.B, b.Pos)
			case a.Op == opDecl2 && b.Op == opDeclLocal && b.A <= declMask:
				// Pos carries the third packed slot/kind pair, not a source
				// position: declarations cannot fault.
				f = Instr{Op: opDecl3, A: a.A, B: a.B, Pos: b.A | b.B<<declShift}
			case a.Op == opLoadPushInt && b.Op == opAddToMField && b.A <= loadMask:
				f = Instr{Op: opLAddIntToMF, B: int32(len(code.aux)), Pos: -1}
				code.aux = append(code.aux, a.A, a.B, a.Pos, b.A, b.Pos)
			case a.Op == opLocalCallMethod && b.Op == opStoreLoad:
				f = Instr{Op: opLocalCallMethodSL, A: a.A, B: int32(len(code.aux)), Pos: a.Pos}
				code.aux = append(code.aux, a.B, b.A, b.B, b.Pos)
			case a.Op == opCallMethod && b.Op == opStoreLoad:
				f = Instr{Op: opCallMethodSL, A: a.A, B: int32(len(code.aux)), Pos: a.Pos}
				code.aux = append(code.aux, b.A, b.B, b.Pos)
			case a.Op == opLoopCheck && b.Op == opLIntCmpJF:
				f = Instr{Op: opLoopLIntCmpJF, A: b.A, B: int32(len(code.aux)), Pos: b.Pos}
				code.aux = append(code.aux, a.A, a.Pos,
					code.aux[b.B], code.aux[b.B+1], code.aux[b.B+2], code.aux[b.B+3])
			case a.Op == opStoreLocal && b.Op == opJump:
				f = Instr{Op: opStoreJump, A: b.A, B: a.A, Pos: -1}
			case a.Op == opLoadPushInt && b.Op == opSend && b.B == 1:
				f = Instr{Op: opSendLI, B: int32(len(code.aux)), Pos: b.Pos}
				code.aux = append(code.aux, a.A, a.B, b.A, a.Pos)
			case a.Op == opLoadPushInt && b.Op == opAssertCmp:
				f = Instr{Op: opLIntAssert, B: int32(len(code.aux)), Pos: b.Pos}
				code.aux = append(code.aux, a.A, a.B, b.B, b.A, a.Pos)
			case a.Op == opCheckRecv && b.Op == opPushInt:
				f = Instr{Op: opCheckRecvPushInt, A: a.A, B: b.A, Pos: a.Pos}
			case a.Op == opMFieldPushInt && b.Op == opCmpJF:
				f = Instr{Op: opMFIntCmpJF, A: b.A, B: int32(len(code.aux)), Pos: -1}
				code.aux = append(code.aux, a.A, a.B, b.B, b.Pos)
			case a.Op == opLIntCmpJF && b.Op == opMFieldToLocal:
				f = Instr{Op: opLIntCmpJFMF2L, A: a.A, B: int32(len(code.aux)), Pos: a.Pos}
				code.aux = append(code.aux,
					code.aux[a.B], code.aux[a.B+1], code.aux[a.B+2], code.aux[a.B+3], b.A, b.B)
			case a.Op == opPushInt && b.Op == opCallObjVoid && b.B == 1:
				f = Instr{Op: opPushIntCallObjVoid, A: b.A, B: a.A, Pos: b.Pos}
			default:
				goto nofuse
			}
			ins[j] = f // j <= i: both pair members were read before this write
			fused = true
			i += 2
			j++
			continue
		}
	nofuse:
		ins[j] = ins[i]
		i++
		j++
	}
	newpc[len(ins)] = int32(j)
	code.ins = ins[:j]
	for k := range code.ins {
		switch code.ins[k].Op {
		case opJump, opJumpFalse, opJumpTrue, opCmpJF, opLIntCmpJF, opLIntCmpJFL2MF,
			opLoopLIntCmpJF, opStoreJump, opMFIntCmpJF, opLIntCmpJFMF2L:
			code.ins[k].A = newpc[code.ins[k].A]
		}
	}
	return fused
}

func (c *compiler) pos(p lang.Pos) int32 {
	s := p.String()
	if i, ok := c.posIdx[s]; ok {
		return i
	}
	i := int32(len(c.cp.poss))
	c.cp.poss = append(c.cp.poss, s)
	c.posIdx[s] = i
	return i
}

func (c *compiler) constant(v int64) int32 {
	if i, ok := c.constIdx[v]; ok {
		return i
	}
	i := int32(len(c.cp.consts))
	c.cp.consts = append(c.cp.consts, vval{n: v, kind: vInt})
	c.constIdx[v] = i
	return i
}

func (c *compiler) event(name string) int32 { return int32(c.prog.EventByName[name].Index) }

func (c *compiler) methodName(name string) int32 {
	if i, ok := c.methodNameIdx[name]; ok {
		return i
	}
	i := int32(len(c.cp.methodNames))
	c.cp.methodNames = append(c.cp.methodNames, name)
	c.methodNameIdx[name] = i
	return i
}

// gen emits instructions for one code unit.
type gen struct {
	c    *compiler
	code *compiledCode
}

func (g *gen) emit(op Opcode, a, b, pos int32) int {
	g.code.ins = append(g.code.ins, Instr{Op: op, A: a, B: b, Pos: pos})
	return len(g.code.ins) - 1
}

// patch points a previously emitted jump at the next instruction.
func (g *gen) patch(at int) { g.code.ins[at].A = int32(len(g.code.ins)) }

// hidden allocates an unnamed frame slot (while-loop iteration counters).
func (g *gen) hidden() int32 {
	s := int32(len(g.code.localNames))
	g.code.localNames = append(g.code.localNames, "")
	return s
}

// field emits a this-field access: ofield in class (heap object) code,
// mfield in machine code.
func (g *gen) field(d *lang.VarDecl, ofield, mfield Opcode) {
	if g.code.class != nil {
		g.emit(ofield, int32(d.Index), 0, -1)
	} else {
		g.emit(mfield, int32(d.Index), 0, -1)
	}
}

func (g *gen) stmts(body []lang.Stmt) {
	for _, s := range body {
		g.stmt(s)
	}
}

func (g *gen) stmt(s lang.Stmt) {
	switch st := s.(type) {
	case *lang.LocalDecl:
		// The walker defines a local when its declaration executes, not at
		// frame entry — a use before that faults "undefined variable".
		g.emit(opDeclLocal, int32(st.Decl.Index), zkindOf(st.Decl.Type), -1)
	case *lang.AssignStmt:
		g.expr(st.Value)
		if st.ToField != "" {
			g.field(st.Decl, opStoreOField, opStoreMField)
		} else {
			g.emit(opStoreLocal, int32(st.Decl.Index), 0, -1)
		}
	case *lang.ExprStmt:
		g.expr(st.X)
		g.emit(opPop, 0, 0, -1)
	case *lang.SendStmt:
		g.expr(st.Dst)
		hasP := int32(0)
		if st.Payload != nil {
			g.expr(st.Payload)
			hasP = 1
		}
		g.emit(opSend, g.c.event(st.Event), hasP, g.c.pos(st.Pos))
	case *lang.RaiseStmt:
		hasP := int32(0)
		if st.Payload != nil {
			g.expr(st.Payload)
			hasP = 1
		}
		g.emit(opRaise, g.c.event(st.Event), hasP, -1)
	case *lang.ReturnStmt:
		if st.Value != nil {
			g.expr(st.Value)
			g.emit(opReturn, 1, 0, -1)
		} else {
			g.emit(opReturn, 0, 0, -1)
		}
	case *lang.IfStmt:
		g.expr(st.Cond)
		jf := g.emit(opJumpFalse, 0, 0, -1)
		g.stmts(st.Then)
		if len(st.Else) > 0 {
			j := g.emit(opJump, 0, 0, -1)
			g.patch(jf)
			g.stmts(st.Else)
			g.patch(j)
		} else {
			g.patch(jf)
		}
	case *lang.WhileStmt:
		ctr := g.hidden()
		g.emit(opDeclLocal, ctr, zkindInt, -1)
		top := int32(len(g.code.ins))
		g.emit(opLoopCheck, ctr, 0, g.c.pos(st.Pos))
		g.expr(st.Cond)
		jf := g.emit(opJumpFalse, 0, 0, -1)
		g.stmts(st.Body)
		g.emit(opJump, top, 0, -1)
		g.patch(jf)
	case *lang.AssertStmt:
		g.expr(st.Cond)
		g.emit(opAssert, 0, 0, g.c.pos(st.Pos))
	default:
		panic(fmt.Sprintf("interp: cannot compile statement %T", s))
	}
}

func (g *gen) expr(e lang.Expr) {
	switch x := e.(type) {
	case *lang.IntLit:
		if x.Value >= math.MinInt32 && x.Value <= math.MaxInt32 {
			g.emit(opPushInt, int32(x.Value), 0, -1)
		} else {
			g.emit(opPushConst, g.c.constant(x.Value), 0, -1)
		}
	case *lang.BoolLit:
		if x.Value {
			g.emit(opPushTrue, 0, 0, -1)
		} else {
			g.emit(opPushFalse, 0, 0, -1)
		}
	case *lang.NullLit:
		g.emit(opPushNull, 0, 0, -1)
	case *lang.VarRef:
		g.emit(opLoadLocal, int32(x.Decl.Index), 0, g.c.pos(x.Pos))
	case *lang.ThisRef:
		g.emit(opBadThis, 0, 0, g.c.pos(x.Pos))
	case *lang.FieldRef:
		g.field(x.Decl, opLoadOField, opLoadMField)
	case *lang.NewExpr:
		g.emit(opNew, int32(g.c.prog.ClassByName[x.Class].Index), 0, -1)
	case *lang.CreateExpr:
		// The walker never evaluates a create payload; neither do we.
		g.emit(opCreate, int32(g.c.prog.MachineByName[x.Machine].Index), 0, -1)
	case *lang.CallExpr:
		g.call(x)
	case *lang.UnaryExpr:
		g.expr(x.X)
		if x.Op == "!" {
			g.emit(opNot, 0, 0, -1)
		} else {
			g.emit(opNeg, 0, 0, -1)
		}
	case *lang.BinaryExpr:
		g.binary(x)
	default:
		panic(fmt.Sprintf("interp: cannot compile expression %T", e))
	}
}

func (g *gen) call(x *lang.CallExpr) {
	if _, ok := x.Recv.(*lang.ThisRef); ok {
		// this.m(...): resolved statically — the executing code's own
		// holder is the runtime receiver by definition.
		for _, a := range x.Args {
			g.expr(a)
		}
		g.emit(opCallSelf, int32(x.Decl.Index), 0, g.c.pos(x.Pos))
		return
	}
	// obj.m(...): the receiver's runtime class is dynamic, so the call
	// resolves through the interned method-name table. The walker checks
	// the receiver and resolves the method before evaluating arguments;
	// opCheckRecv keeps that fault order.
	ni := g.c.methodName(x.Method)
	g.expr(x.Recv)
	g.emit(opCheckRecv, ni, 0, g.c.pos(x.Pos))
	for _, a := range x.Args {
		g.expr(a)
	}
	g.emit(opCallObj, ni, int32(len(x.Args)), g.c.pos(x.Pos))
}

func (g *gen) binary(x *lang.BinaryExpr) {
	switch x.Op {
	case "&&":
		g.expr(x.L)
		jf := g.emit(opJumpFalse, 0, 0, -1)
		g.expr(x.R)
		j := g.emit(opJump, 0, 0, -1)
		g.patch(jf)
		g.emit(opPushFalse, 0, 0, -1)
		g.patch(j)
		return
	case "||":
		g.expr(x.L)
		jt := g.emit(opJumpTrue, 0, 0, -1)
		g.expr(x.R)
		j := g.emit(opJump, 0, 0, -1)
		g.patch(jt)
		g.emit(opPushTrue, 0, 0, -1)
		g.patch(j)
		return
	}
	g.expr(x.L)
	g.expr(x.R)
	var op Opcode
	switch x.Op {
	case "==":
		op = opEq
	case "!=":
		op = opNe
	case "+":
		op = opAdd
	case "-":
		op = opSub
	case "*":
		op = opMul
	case "/":
		op = opDiv
	case "%":
		op = opMod
	case "<":
		op = opLt
	case "<=":
		op = opLe
	case ">":
		op = opGt
	case ">=":
		op = opGe
	default:
		panic(fmt.Sprintf("interp: cannot compile operator %q", x.Op))
	}
	pos := int32(-1)
	if op != opEq && op != opNe {
		pos = g.c.pos(x.Pos) // integer-op and divide-by-zero faults
	}
	g.emit(op, 0, 0, pos)
}
