package lang

import (
	"strings"
	"testing"
)

// TestLexerBasics covers token classes and operators.
func TestLexerBasics(t *testing.T) {
	toks, err := Lex(`machine m { var x: int; } // comment
x := 1 + 2 * 3 <= 4 && !true || a != b;`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	if kinds[0] != TokMachine || toks[0].Text != "machine" {
		t.Fatalf("first token = %v", toks[0])
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Fatal("missing EOF token")
	}
	joined := ""
	for _, tok := range toks {
		joined += tok.Text + " "
	}
	for _, op := range []string{":=", "<=", "&&", "!", "||", "!="} {
		if !strings.Contains(joined, op) {
			t.Errorf("operator %q not lexed: %s", op, joined)
		}
	}
}

func TestLexerRejectsGarbage(t *testing.T) {
	if _, err := Lex("machine m @ {}"); err == nil {
		t.Fatal("want error on '@'")
	}
}

// TestParsePrecedence checks the expression grammar's precedence.
func TestParsePrecedence(t *testing.T) {
	prog := MustParse(`
machine m {
	var x: int;
	start state S {
		entry {
			var b: bool;
			b := 1 + 2 * 3 == 7 && 4 < 5;
			if (b) { this.x := 1; } else { this.x := 2; }
		}
	}
}`)
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	entry := prog.Machines[0].States[0].Entry
	assign := entry[1].(*AssignStmt)
	and, ok := assign.Value.(*BinaryExpr)
	if !ok || and.Op != "&&" {
		t.Fatalf("top operator = %v, want &&", assign.Value)
	}
	eq, ok := and.L.(*BinaryExpr)
	if !ok || eq.Op != "==" {
		t.Fatalf("left of && = %v, want ==", and.L)
	}
	plus, ok := eq.L.(*BinaryExpr)
	if !ok || plus.Op != "+" {
		t.Fatalf("left of == = %v, want +", eq.L)
	}
	if mul, ok := plus.R.(*BinaryExpr); !ok || mul.Op != "*" {
		t.Fatalf("right of + = %v, want *", plus.R)
	}
}

// TestParseStateTables covers entry/on-do/on-goto/defer/ignore.
func TestParseStateTables(t *testing.T) {
	prog := MustParse(`
event eA;
event eB;
event eC;
event eD;
machine m {
	start state S1 {
		entry { raise eA; }
		on eA goto S2;
		defer eB;
		ignore eC;
	}
	state S2 {
		on eB do handle;
		on eD goto S1;
	}
	method handle(v: int) { assert v == v; }
}`)
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	md := prog.Machines[0]
	if md.StartState.Name != "S1" {
		t.Fatalf("start state %q", md.StartState.Name)
	}
	s1 := md.StateByName["S1"]
	if s1.OnGoto["eA"] != "S2" || !s1.Defers["eB"] || !s1.Ignores["eC"] {
		t.Fatalf("state tables wrong: %+v", s1)
	}
	if md.StateByName["S2"].OnDo["eB"] != "handle" {
		t.Fatal("on-do binding lost")
	}
}

// TestCheckerErrors enumerates the diagnostics the checker must produce.
func TestCheckerErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown event", `machine m { start state S { on eNope do h; } method h() {} }`, "unknown event"},
		{"double binding", `event eA; machine m { start state S { on eA do h; on eA goto S; } method h() {} }`, "bound more than once"},
		{"no start state", `machine m { state S { } }`, "no start state"},
		{"bad goto target", `event eA; machine m { start state S { on eA goto Nope; } }`, "not a state"},
		{"undeclared var", `machine m { start state S { entry { x := 1; } } }`, "undeclared variable"},
		{"type mismatch", `machine m { var x: int; start state S { entry { this.x := true; } } }`, "cannot assign"},
		{"unknown field", `machine m { start state S { entry { this.y := 1; } } }`, "no field"},
		{"bad payload count", `event eA; machine m { start state S { on eA do h; } method h(a: int, b: int) {} }`, "at most one"},
		{"arity", `class c { method f(x: int) {} } machine m { start state S { entry { var o: c; o := new c; o.f(); } } }`, "expects 1 arguments"},
		{"send non-machine", `event eA; machine m { start state S { entry { send 3, eA; } } }`, "must have type machine"},
		{"cond not bool", `machine m { start state S { entry { if (1) {} } } }`, "must be bool"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Parse(tc.src)
			if err == nil {
				err = Check(prog)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestParserErrors checks syntax diagnostics.
func TestParserErrors(t *testing.T) {
	cases := []string{
		`machine {`,
		`machine m { start state S { entry { x := ; } } }`,
		`machine m { start state S { on }`,
		`event eA`,
		`class c { var x int; }`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("want parse error for %q", src)
		}
	}
}

// TestNullAssignability checks null against reference and scalar slots.
func TestNullAssignability(t *testing.T) {
	good := `class c { var x: int; } machine m { var f: c; start state S { entry { this.f := null; } } }`
	if err := Check(MustParse(good)); err != nil {
		t.Fatalf("null to reference field must check: %v", err)
	}
	bad := `machine m { var x: int; start state S { entry { this.x := null; } } }`
	if err := Check(MustParse(bad)); err == nil {
		t.Fatal("null to int must be rejected")
	}
}

const numberingSrc = `
event eA;
event eB;

class box {
	var v: int;
	method get(): int { var r: int; r := this.v; return r; }
}

class pair {
	var l: box;
	var r: box;
	method first(): box { return this.l; }
	method second(): box { return this.r; }
}

machine m1 {
	var f1: int;
	var f2: bool;
	start state S0 {
		entry {
			var a: int;
			if (true) {
				var b: bool;
				b := false;
			} else {
				var e: int;
				e := 1;
			}
			while (a < 2) {
				var c: int;
				a := a + 1;
			}
		}
		on eA do h;
		on eB goto S1;
	}
	state S1 {
	}
	method g() { this.h(1); }
	method h(p: int) {
		var x: int;
		x := p;
	}
}

machine m2 {
	start state Idle {
	}
}

monitor obs_m {
	var seen: int;
	start state Watch {
		on eA do note;
	}
	method note() { this.seen := this.seen + 1; }
}
`

// checkIndices fails unless every declaration of prog carries its position
// in the list that declares it.
func checkIndices(t *testing.T, prog *Program) {
	t.Helper()
	want := func(what string, got, i int) {
		t.Helper()
		if got != i {
			t.Fatalf("%s: Index = %d, want %d", what, got, i)
		}
	}
	members := func(holder string, fields []*VarDecl, methods []*MethodDecl) {
		for i, f := range fields {
			want(holder+"."+f.Name, f.Index, i)
		}
		for i, m := range methods {
			want(holder+"."+m.Name+"()", m.Index, i)
			for j, v := range m.Vars {
				want(holder+"."+m.Name+" var "+v.Name, v.Index, j)
			}
		}
	}
	for i, e := range prog.Events {
		want("event "+e.Name, e.Index, i)
	}
	for i, cd := range prog.Classes {
		want("class "+cd.Name, cd.Index, i)
		members(cd.Name, cd.Fields, cd.Methods)
	}
	for _, list := range [][]*MachineDecl{prog.Machines, prog.Monitors} {
		for i, md := range list {
			want(md.Name, md.Index, i)
			members(md.Name, md.Fields, md.Methods)
			for j, sd := range md.States {
				want(md.Name+" state "+sd.Name, sd.Index, j)
				if sd.EntryMethod != nil {
					for k, v := range sd.EntryMethod.Vars {
						want(md.Name+" state "+sd.Name+" entry var "+v.Name, v.Index, k)
					}
				}
			}
		}
	}
}

// TestCheckNumbersDeclarations checks that Check numbers every declaration
// kind in declaration order (monitors apart from machines), here and on
// every corpus source, and that resolved references carry those numbers.
func TestCheckNumbersDeclarations(t *testing.T) {
	prog := MustParse(numberingSrc)
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	checkIndices(t, prog)
	if prog.EventByName["eB"].Index != 1 || prog.ClassByName["pair"].Index != 1 ||
		prog.MachineByName["m2"].Index != 1 || prog.MonitorByName["obs_m"].Index != 0 {
		t.Fatal("event, class, machine or monitor not numbered in declaration order")
	}
	m1 := prog.MachineByName["m1"]
	if m1.StateByName["S1"].Index != 1 || m1.FieldByName["f2"].Index != 1 || m1.MethodByName["h"].Index != 1 {
		t.Fatal("state, field or method not numbered in declaration order")
	}
	call := m1.MethodByName["g"].Body[0].(*ExprStmt).X.(*CallExpr)
	if call.Decl.Index != 1 {
		t.Fatalf("this.h resolves to method index %d, want 1", call.Decl.Index)
	}
	note := prog.MonitorByName["obs_m"].MethodByName["note"].Body[0].(*AssignStmt)
	if note.Decl.Index != 0 || note.Value.(*BinaryExpr).L.(*FieldRef).Decl.Index != 0 {
		t.Fatal("monitor field references do not carry the field's index")
	}
	for _, src := range corpus(t) {
		prog := MustParse(src)
		if err := Check(prog); err != nil {
			t.Fatal(err)
		}
		checkIndices(t, prog)
	}
}

// TestCheckNumbersFrames checks the frame Check builds for each body:
// parameters first, then every local however deeply nested, in source order.
func TestCheckNumbersFrames(t *testing.T) {
	prog := MustParse(numberingSrc)
	if err := Check(prog); err != nil {
		t.Fatal(err)
	}
	names := func(decls []*VarDecl) string {
		var out []string
		for _, d := range decls {
			out = append(out, d.Name)
		}
		return strings.Join(out, " ")
	}
	m1 := prog.MachineByName["m1"]
	h := m1.MethodByName["h"]
	if got := names(h.Vars); got != "p x" {
		t.Fatalf("method h frame = [%s], want [p x]", got)
	}
	assign := h.Body[1].(*AssignStmt)
	if assign.Decl != h.Vars[1] || assign.Value.(*VarRef).Decl != h.Vars[0] {
		t.Fatal("x := p does not resolve to frame slots 1 and 0")
	}
	entry := m1.StartState.EntryMethod
	if got := names(entry.Vars); got != "a b e c" {
		t.Fatalf("entry frame = [%s], want [a b e c] (nested decls in source order)", got)
	}
	if got := names(prog.ClassByName["box"].MethodByName["get"].Vars); got != "r" {
		t.Fatalf("box.get frame = [%s], want [r]", got)
	}
	if m1.StateByName["S1"].EntryMethod != nil {
		t.Fatal("a state without an entry block got an entry method")
	}
}
