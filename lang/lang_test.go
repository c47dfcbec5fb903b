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
