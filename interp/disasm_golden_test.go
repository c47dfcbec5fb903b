package interp

// The bytecode compiler's byte-for-byte oracle. testdata/disasm_golden.txt
// holds Disassemble of every Table 1 corpus source (each program and each
// racy variant): the interned event, class, machine, state, method, field
// and frame-slot numbering, every emitted and fused instruction, and the
// dispatch tables. It was recorded from the compiler that resolved names
// through its own symbol table, before it was changed to read the checker's
// indices; the compiler must reproduce the file exactly.
//
// Regenerate (only when a deliberate change moves the bytecode) with:
//
//	PSHARP_WRITE_GOLDENS=1 go test -run TestWriteDisassemblyGolden ./interp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/psharp-go/psharp/internal/benchsrc"
)

const disasmGoldenPath = "testdata/disasm_golden.txt"

// disasmCorpus renders the listing of every corpus program, each under a
// "== name" header.
func disasmCorpus(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, bm := range benchsrc.All() {
		for _, racy := range []bool{false, true} {
			if racy && !bm.HasRacy {
				continue
			}
			prog, err := benchsrc.Source(bm.Name, racy)
			if err != nil {
				t.Fatal(err)
			}
			id := bm.Name
			if racy {
				id += "(racy)"
			}
			fmt.Fprintf(&sb, "== %s\n", id)
			sb.WriteString(Disassemble(prog))
		}
	}
	return sb.String()
}

func TestWriteDisassemblyGolden(t *testing.T) {
	if os.Getenv("PSHARP_WRITE_GOLDENS") == "" {
		t.Skip("set PSHARP_WRITE_GOLDENS=1 to re-record " + disasmGoldenPath)
	}
	if err := os.MkdirAll(filepath.Dir(disasmGoldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(disasmGoldenPath, []byte(disasmCorpus(t)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDisassemblyGolden requires the compiler to reproduce the recorded
// listing line for line.
func TestDisassemblyGolden(t *testing.T) {
	want, err := os.ReadFile(disasmGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := disasmCorpus(t)
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s:%d diverged from the recorded bytecode:\n got %s\nwant %s", disasmGoldenPath, i+1, g, w)
		}
	}
}
