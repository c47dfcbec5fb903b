package interp

import (
	"strings"
	"testing"

	"github.com/psharp-go/psharp/analysis"
	"github.com/psharp-go/psharp/lang"
)

// TestDeepestNestingAnalysesCompilesAndRuns: the parser bounds nesting
// because every pass behind it recurses over the tree. A source at the bound
// (1000 levels; one more is a parse error, see lang's TestNestingBound) must
// go through all of them — the static analysis, the bytecode compiler, both
// engines — and compute what it says.
func TestDeepestNestingAnalysesCompilesAndRuns(t *testing.T) {
	const depth = 1000
	shapes := map[string]string{
		"parentheses":    "x := " + strings.Repeat("(", depth) + "7" + strings.Repeat(")", depth) + ";",
		"operator chain": "x := 7" + strings.Repeat(" + 1", depth/2) + strings.Repeat(" - 1", depth/2) + ";",
		"blocks":         strings.Repeat("if (x == 0) {", depth) + "x := 7;" + strings.Repeat("}", depth),
	}
	for name, body := range shapes {
		t.Run(name, func(t *testing.T) {
			prog, err := lang.Parse("machine m { var got: int; start state S { entry { var x: int; x := 0;\n" + body + "\nassert x == 7; this.got := x; } } }")
			if err == nil {
				err = lang.Check(prog)
			}
			if err != nil {
				t.Fatal(err)
			}
			if res := analysis.Analyze(prog, analysis.Options{XSA: true}); !res.Verified() {
				t.Fatalf("a program that sends nothing has violations: %v", res.Violations)
			}
			if !strings.Contains(Disassemble(prog), "assert") {
				t.Fatal("the compiled entry block has no assert")
			}
			for _, engine := range []Engine{EngineWalk, EngineBytecode} {
				if out := Run(prog, "m", Options{Engine: engine}); out.Err != nil || !out.Quiescent {
					t.Fatalf("engine %v: %+v", engine, out)
				}
			}
		})
	}
}
