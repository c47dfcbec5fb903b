package lang

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corpus returns the 21 Table 1 sources (internal/benchsrc embeds the same
// files; it imports this package, so the test reads them from disk).
func corpus(t testing.TB) []string {
	t.Helper()
	paths, err := filepath.Glob("../internal/benchsrc/src/*.psl")
	if err != nil || len(paths) != 21 {
		t.Fatalf("want the 21 corpus sources, found %d (%v)", len(paths), err)
	}
	var out []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(data))
	}
	return out
}

// TestFrontEndAllocCap locks the front end's allocation profile: parsing and
// checking the 21 corpus sources, measured at 3.65k heap allocations when the
// cap was set (8.8k before AST nodes and statement lists came from per-parse
// slabs and the checker reused its scope maps). What is left is the slab
// chunks (a handful per node type), the declaration lists, the state tables
// and the symbol tables Check fills. A per-token or per-node allocation creeping
// back multiplies the figure and fails here rather than in the benchmark.
func TestFrontEndAllocCap(t *testing.T) {
	const allocCap = 4600 // ~25 % above the measured figure
	srcs := corpus(t)
	allocs := testing.AllocsPerRun(5, func() {
		for _, src := range srcs {
			if err := Check(MustParse(src)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > allocCap {
		t.Errorf("parse + check of the corpus = %.0f allocations, want <= %d", allocs, allocCap)
	}
	t.Logf("parse + check of the corpus: %.0f allocations over %d sources", allocs, len(srcs))
}

// reserved lists the language's reserved words; the lexer must give each a
// token kind of its own and every other identifier TokIdent.
var reserved = strings.Fields(`class machine event state start entry on do goto defer ignore var method
	if else while return send create new assert raise this null true false int bool halt monitor hot cold`)

// FuzzParse: Parse, and Check when the input parses, never panic; every
// error they return carries a line:col inside the input; and Lex agrees with
// the token stream the parser saw — on every token's kind (a reserved word's
// own kind, the same one wherever it occurs, and no other token shares it)
// and position (the token's text is what the source has there), and on the
// token the parser stopped at.
func FuzzParse(f *testing.F) {
	for _, src := range corpus(f) {
		f.Add(src)
	}
	f.Add("machine m { start state S { entry { var x: int; x := ((1)) + -2 * 3; } } }")
	f.Add("event e; machine m { start state S { on e do h; } method h() { if (1 = 2) {} } }")
	f.Fuzz(func(t *testing.T, src string) {
		lines := strings.Split(src, "\n")
		inside := func(err error) {
			t.Helper()
			var line, col int
			if _, scanErr := fmt.Sscanf(err.Error(), "lang: %d:%d:", &line, &col); scanErr != nil {
				t.Fatalf("error without a position: %v", err)
			}
			if line < 1 || line > len(lines) || col < 1 || col > len(lines[line-1])+1 {
				t.Fatalf("error position outside the %d-line input: %v", len(lines), err)
			}
		}

		p := &parser{lex: newLexer(src)}
		prog, err := p.parse()
		if err != nil {
			inside(err)
		} else if err := Check(prog); err != nil {
			inside(err)
		}

		toks, lexErr := Lex(src)
		if lexErr != nil {
			inside(lexErr)
			if err == nil {
				t.Fatalf("Parse accepted an input Lex refuses: %v", lexErr)
			}
			return
		}
		kindOf := make(map[string]TokenKind)
		for _, w := range reserved {
			kindOf[w] = keywordKind(w)
		}
		textOf := make(map[TokenKind]string)
		stoppedAt := false
		for _, tok := range toks {
			line := lines[tok.Pos.Line-1]
			if at := tok.Pos.Col - 1; at+len(tok.Text) > len(line) || line[at:at+len(tok.Text)] != tok.Text {
				t.Fatalf("token %s is not at %s", tok, tok.Pos)
			}
			if tok.Kind != TokEOF && tok.Text == "" {
				t.Fatalf("empty token of kind %d at %s", tok.Kind, tok.Pos)
			}
			if want, isReserved := kindOf[tok.Text]; isReserved != (tok.Kind >= TokClass) || isReserved && tok.Kind != want {
				t.Fatalf("token %s at %s has kind %d", tok, tok.Pos, tok.Kind)
			}
			if tok.Kind > TokInt {
				if prev, seen := textOf[tok.Kind]; seen && prev != tok.Text {
					t.Fatalf("kind %d is both %q and %q", tok.Kind, prev, tok.Text)
				}
				textOf[tok.Kind] = tok.Text
			}
			stoppedAt = stoppedAt || tok == p.tok
		}
		if !stoppedAt {
			t.Fatalf("the parser stopped at %s (%s), which Lex does not produce", p.tok, p.tok.Pos)
		}
		if err == nil && p.tok.Kind != TokEOF {
			t.Fatalf("Parse succeeded before the end of input, at %s", p.tok.Pos)
		}
	})
}

// TestNestingBound: every way a source can nest — parentheses, unary
// operators, call arguments, create payloads, operator chains, blocks — is
// accepted at depth maxNesting (and still checks) and refused one level
// deeper with a positioned error, instead of overflowing the stack in the
// parser or in one of the passes that recurse over the tree it returns.
func TestNestingBound(t *testing.T) {
	shapes := []struct{ name, before, open, core, clos, after string }{
		{"parentheses", "var x: int; x := ", "(", "1", ")", ";"},
		{"unary operators", "var x: int; x := ", "-", "1", "", ";"},
		{"call arguments", "var b: box; b := ", "b.id(", "b", ")", ";"},
		{"create payloads", "var q: machine; q := ", "create m(", "null", ")", ";"},
		{"operator chain", "var x: int; x := 1", " + 1", "", "", ";"},
		{"blocks", "var x: int; ", "if (true) {", "x := 1;", "}", ""},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			build := func(depth int) string {
				return "class box { method id(b: box): box { return b; } }\nmachine m { start state S { entry {\n" + s.before +
					strings.Repeat(s.open, depth) + s.core + strings.Repeat(s.clos, depth) + s.after + "\n} } }"
			}
			for _, depth := range []int{maxNesting - 1, maxNesting} {
				prog, err := Parse(build(depth))
				if err == nil {
					err = Check(prog)
				}
				if err != nil {
					t.Fatalf("depth %d must parse and check: %v", depth, err)
				}
			}
			// 1<<20 levels: the shape that ended the process in a stack overflow.
			for _, depth := range []int{maxNesting + 1, 1 << 20} {
				_, err := Parse(build(depth))
				if err == nil || !strings.Contains(err.Error(), "nest deeper") {
					t.Fatalf("depth %d must be refused, got %v", depth, err)
				}
				var line, col int
				if _, scanErr := fmt.Sscanf(err.Error(), "lang: %d:%d:", &line, &col); scanErr != nil || line != 3 {
					t.Fatalf("depth %d: refusal without its position: %v", depth, err)
				}
			}
		})
	}
}
