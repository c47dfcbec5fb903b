package interp

// Disassembly of compiled programs, for debugging the bytecode engine and
// for documentation. The listing is stable for a given source text: every
// index is the one lang.Check gave the declaration, its position in
// declaration order.

import (
	"fmt"
	"strings"

	"github.com/psharp-go/psharp/lang"
)

// Disassemble compiles prog (or reuses its cached bytecode) and returns a
// human-readable listing of every code unit: class methods, then machine
// and monitor methods, state entry blocks, and per-state dispatch tables.
func Disassemble(prog *lang.Program) string {
	cp := compiledFor(prog)
	var b strings.Builder
	for _, cc := range cp.classes {
		fmt.Fprintf(&b, "class %s:\n", cc.decl.Name)
		for _, code := range cc.methods {
			disasmCode(&b, cp, code)
		}
	}
	for _, cm := range cp.machines {
		disasmMachine(&b, cp, "machine", cm)
	}
	for _, cm := range cp.monitors {
		disasmMachine(&b, cp, "monitor", cm)
	}
	return b.String()
}

func disasmMachine(b *strings.Builder, cp *compiledProgram, kind string, cm *compiledMachine) {
	fmt.Fprintf(b, "%s %s:\n", kind, cm.decl.Name)
	for _, cs := range cm.states {
		marker := ""
		if cs == cm.start {
			marker = " (start)"
		}
		if cs.hot {
			marker += " (hot)"
		}
		fmt.Fprintf(b, "  state %s%s:\n", cs.decl.Name, marker)
		// Dispatch cells in event order; dispatchNone cells are omitted.
		for evt, vd := range cs.dispatch {
			switch vd.kind {
			case dispatchDo:
				fmt.Fprintf(b, "    on %s do %s\n", cp.events[evt], vd.method.name)
			case dispatchGoto:
				fmt.Fprintf(b, "    on %s goto %s\n", cp.events[evt], vd.target.decl.Name)
			case dispatchDefer:
				fmt.Fprintf(b, "    on %s defer\n", cp.events[evt])
			case dispatchIgnore:
				fmt.Fprintf(b, "    on %s ignore\n", cp.events[evt])
			}
		}
		if cs.entry != nil {
			disasmCode(b, cp, cs.entry)
		}
	}
	for _, code := range cm.methods {
		disasmCode(b, cp, code)
	}
}

func disasmCode(b *strings.Builder, cp *compiledProgram, code *compiledCode) {
	fmt.Fprintf(b, "  func %s (params=%d locals=%d):\n", code.name, code.nparams, code.nlocals)
	for pc, in := range code.ins {
		fmt.Fprintf(b, "    %3d  %-11s%s\n", pc, in.Op, disasmOperands(cp, code, in))
	}
}

// disasmOperands renders one instruction's operands symbolically.
func disasmOperands(cp *compiledProgram, code *compiledCode, in Instr) string {
	local := func(slot int32) string {
		if n := code.localNames[slot]; n != "" {
			return fmt.Sprintf("%d (%s)", slot, n)
		}
		return fmt.Sprintf("%d (hidden)", slot)
	}
	field := func(slot int32) string {
		if code.class != nil {
			return fmt.Sprintf("%d (%s)", slot, code.class.decl.Fields[slot].Name)
		}
		return fmt.Sprintf("%d (%s)", slot, code.machine.decl.Fields[slot].Name)
	}
	switch in.Op {
	case opPushInt:
		return fmt.Sprintf(" %d", in.A)
	case opPushConst:
		return fmt.Sprintf(" %d (%v)", in.A, cp.consts[in.A].value())
	case opLoadLocal, opStoreLocal:
		return " " + local(in.A)
	case opDeclLocal:
		kinds := [...]string{"int", "bool", "machine", "null"}
		return fmt.Sprintf(" %s zero=%s", local(in.A), kinds[in.B])
	case opLoopCheck:
		return " " + local(in.A)
	case opLoadMField, opStoreMField, opLoadOField, opStoreOField:
		return " " + field(in.A)
	case opJump, opJumpFalse, opJumpTrue:
		return fmt.Sprintf(" -> %d", in.A)
	case opSend, opRaise:
		s := fmt.Sprintf(" %d (%s)", in.A, cp.events[in.A])
		if in.B == 1 {
			s += " payload"
		}
		return s
	case opReturn:
		if in.A == 1 {
			return " value"
		}
		return ""
	case opCallSelf:
		if code.class != nil {
			return fmt.Sprintf(" %d (%s)", in.A, code.class.methods[in.A].name)
		}
		return fmt.Sprintf(" %d (%s)", in.A, code.machine.methods[in.A].name)
	case opCheckRecv:
		return fmt.Sprintf(" %d (%s)", in.A, cp.methodNames[in.A])
	case opCallObj:
		return fmt.Sprintf(" %d (%s) argc=%d", in.A, cp.methodNames[in.A], in.B)
	case opCreate:
		return fmt.Sprintf(" %d (%s)", in.A, cp.machines[in.A].decl.Name)
	case opNew:
		return fmt.Sprintf(" %d (%s)", in.A, cp.classes[in.A].decl.Name)
	case opStoreLoad:
		return fmt.Sprintf(" %s, %s", local(in.A), local(in.B))
	case opMFieldToLocal:
		return fmt.Sprintf(" %s -> %s", field(in.A), local(in.B))
	case opLocalToMField:
		return fmt.Sprintf(" %s -> %s", local(in.A), field(in.B))
	case opLoadPushInt:
		return fmt.Sprintf(" %s, %d", local(in.A), in.B)
	case opEqInt:
		return fmt.Sprintf(" %d", in.A)
	case opDecl2:
		kinds := [...]string{"int", "bool", "machine", "null"}
		return fmt.Sprintf(" %s zero=%s, %s zero=%s",
			local(in.A&declMask), kinds[in.A>>declShift],
			local(in.B&declMask), kinds[in.B>>declShift])
	case opLoad2:
		return fmt.Sprintf(" %s, %s", local(in.A&loadMask), local(in.A>>loadShift))
	case opCallMethod:
		return fmt.Sprintf(" %d (%s)", in.A, cp.methodNames[in.A])
	case opIntToMField:
		return fmt.Sprintf(" %d -> %s", in.A, field(in.B))
	case opMFieldPushInt:
		return fmt.Sprintf(" %s, %d", field(in.A), in.B)
	case opCmpJF:
		return fmt.Sprintf(" %q -> %d", opSymbol(Opcode(in.B)), in.A)
	case opAssertCmp:
		return fmt.Sprintf(" %q", opSymbol(Opcode(in.B)))
	case opSendLL:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" %d (%s) dst=%s payload=%s",
			ax[2], cp.events[ax[2]], local(in.A&loadMask), local(in.A>>loadShift))
	case opAddToMField:
		return " " + field(in.A)
	case opLocalCallMethod:
		return fmt.Sprintf(" %d (%s) this=%s",
			in.A>>loadShift, cp.methodNames[in.A>>loadShift], local(in.A&loadMask))
	case opLocalToOField:
		return fmt.Sprintf(" %s -> %s", local(in.A), field(in.B))
	case opMFieldAddInt:
		return fmt.Sprintf(" %s + %d", field(in.A), in.B)
	case opLIntCmpJF:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" %s %s %d -> %d",
			local(ax[0]), opSymbol(Opcode(ax[2])), ax[1], in.A)
	case opStoreRetLocal:
		return fmt.Sprintf(" %s, %s", local(in.A), local(in.B))
	case opDeclLoadOField:
		kinds := [...]string{"int", "bool", "machine", "null"}
		return fmt.Sprintf(" %s zero=%s, %s",
			local(in.A&declMask), kinds[in.A>>declShift], field(in.B))
	case opRetOField:
		return " " + field(in.A)
	case opMFSendLL:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" %s -> %s, then %d (%s) dst=%s payload=%s",
			field(ax[3]), local(ax[4]),
			ax[2], cp.events[ax[2]], local(in.A&loadMask), local(in.A>>loadShift))
	case opMFAddIntToMF:
		return fmt.Sprintf(" %s + %d -> %s",
			field(in.A&loadMask), in.B, field(in.A>>loadShift))
	case opCallObjVoid:
		return fmt.Sprintf(" %d (%s) argc=%d", in.A, cp.methodNames[in.A], in.B)
	case opMF2L2:
		return fmt.Sprintf(" %s -> %s, %s -> %s",
			field(in.A&loadMask), local(in.A>>loadShift),
			field(in.B&loadMask), local(in.B>>loadShift))
	case opDecl2MF2L:
		ax := code.aux[in.B:]
		kinds := [...]string{"int", "bool", "machine", "null"}
		return fmt.Sprintf(" %s zero=%s, %s zero=%s, %s -> %s",
			local(in.A&declMask), kinds[in.A>>declShift],
			local(ax[0]&declMask), kinds[ax[0]>>declShift],
			field(ax[1]), local(ax[2]))
	case opNewStoreLoad:
		return fmt.Sprintf(" %d (%s) -> %s, %s",
			in.A&loadMask, cp.classes[in.A&loadMask].decl.Name,
			local(in.A>>loadShift), local(in.B))
	case opCreateStore:
		return fmt.Sprintf(" %d (%s) -> %s",
			in.A, cp.machines[in.A].decl.Name, local(in.B))
	case opSendLL2:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" %d (%s) dst=%s payload=%s; %d (%s) dst=%s payload=%s",
			ax[3], cp.events[ax[3]], local(ax[0]&loadMask), local(ax[0]>>loadShift),
			ax[8], cp.events[ax[8]], local(ax[5]&loadMask), local(ax[5]>>loadShift))
	case opLIntCmpJFL2MF:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" %s %s %d -> %d; %s -> %s",
			local(ax[0]), opSymbol(Opcode(ax[2])), ax[1], in.A,
			local(ax[4]), field(ax[5]))
	case opMFIntAssert:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" %s %s %d", field(ax[0]), opSymbol(Opcode(ax[2])), ax[1])
	case opL2OF2:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" %s -> %s, %s -> %s",
			local(ax[0]), field(ax[1]), local(ax[3]), field(ax[4]))
	case opDecl3:
		kinds := [...]string{"int", "bool", "machine", "null"}
		return fmt.Sprintf(" %s zero=%s, %s zero=%s, %s zero=%s",
			local(in.A&declMask), kinds[in.A>>declShift],
			local(in.B&declMask), kinds[in.B>>declShift],
			local(in.Pos&declMask), kinds[in.Pos>>declShift])
	case opLAddIntToMF:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" %s + %d -> %s", local(ax[0]), ax[1], field(ax[3]))
	case opLocalCallMethodSL:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" %d (%s) this=%s -> %s, %s",
			in.A>>loadShift, cp.methodNames[in.A>>loadShift],
			local(in.A&loadMask), local(ax[1]), local(ax[2]))
	case opCallMethodSL:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" %d (%s) -> %s, %s",
			in.A, cp.methodNames[in.A], local(ax[0]), local(ax[1]))
	case opLoopLIntCmpJF:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" ctr=%s; %s %s %d -> %d",
			local(ax[0]), local(ax[2]), opSymbol(Opcode(ax[4])), ax[3], in.A)
	case opStoreJump:
		return fmt.Sprintf(" %s -> %d", local(in.B), in.A)
	case opSendLI:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" %d (%s) dst=%s payload=%d",
			ax[2], cp.events[ax[2]], local(ax[0]), ax[1])
	case opLIntAssert:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" %s %s %d", local(ax[0]), opSymbol(Opcode(ax[2])), ax[1])
	case opCheckRecvPushInt:
		return fmt.Sprintf(" %d (%s), %d", in.A, cp.methodNames[in.A], in.B)
	case opMFIntCmpJF:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" %s %s %d -> %d",
			field(ax[0]), opSymbol(Opcode(ax[2])), ax[1], in.A)
	case opLIntCmpJFMF2L:
		ax := code.aux[in.B:]
		return fmt.Sprintf(" %s %s %d -> %d; %s -> %s",
			local(ax[0]), opSymbol(Opcode(ax[2])), ax[1], in.A,
			field(ax[4]), local(ax[5]))
	case opPushIntCallObjVoid:
		return fmt.Sprintf(" %d (%s) arg=%d", in.A, cp.methodNames[in.A], in.B)
	}
	return ""
}
