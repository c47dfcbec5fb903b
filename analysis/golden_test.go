package analysis

// The analysis' byte-for-byte oracle. testdata/analysis_golden.txt was
// recorded from the map-of-maps solver (naive chaotic iteration, every
// method re-solved on every round of the summary loop) immediately before
// the dense bitset domain and the worklist solver replaced it. It lists,
// for each of the 21 corpus sources under four option sets, every
// violation with its event and WritesAfter flag, the read-only suppression
// count, and the sorted give-up map. The current solver must reproduce the
// file exactly, so "the dense solver returns what the naive one did" is a
// committed fact rather than a claim.
//
// Regenerate (only when a deliberate semantic change moves a result) with:
//
//	PSHARP_WRITE_GOLDENS=1 go test -run TestWriteAnalysisGolden ./analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/psharp-go/psharp/internal/benchsrc"
	"github.com/psharp-go/psharp/lang"
)

const analysisGoldenPath = "testdata/analysis_golden.txt"

// corpusSource is one of the 21 Table 1 sources.
type corpusSource struct {
	id   string
	text string
}

func corpusSources(t testing.TB) []corpusSource {
	t.Helper()
	var out []corpusSource
	for _, b := range benchsrc.All() {
		for _, racy := range []bool{false, true} {
			if racy && !b.HasRacy {
				continue
			}
			text, err := benchsrc.RawSource(b.Name, racy)
			if err != nil {
				t.Fatal(err)
			}
			id := b.Name
			if racy {
				id += "(racy)"
			}
			out = append(out, corpusSource{id, text})
		}
	}
	return out
}

func (s corpusSource) program(t testing.TB) *lang.Program {
	t.Helper()
	prog, err := lang.Parse(s.text)
	if err == nil {
		err = lang.Check(prog)
	}
	if err != nil {
		t.Fatalf("%s: %v", s.id, err)
	}
	return prog
}

var goldenOptionSets = []Options{{}, {XSA: true}, {XSA: true, ReadOnly: true}, {ReadOnly: true}}

// dumpViolations renders a violation list one entry per line.
func dumpViolations(sb *strings.Builder, label string, vs []Violation) {
	fmt.Fprintf(sb, "  %s: %d\n", label, len(vs))
	for _, v := range vs {
		fmt.Fprintf(sb, "    %s | event=%q writesAfter=%v\n", v.String(), v.Event, v.WritesAfter)
	}
}

// dumpResult renders one analysis result.
func dumpResult(res *Result) string {
	var sb strings.Builder
	dumpViolations(&sb, "base", res.BaseViolations)
	dumpViolations(&sb, "final", res.Violations)
	fmt.Fprintf(&sb, "  readOnlySuppressed: %d\n", res.ReadOnlySuppressed)
	return sb.String()
}

// dumpProgram renders everything the analysis reports about one program.
func dumpProgram(id string, prog *lang.Program) string {
	var sb strings.Builder
	for _, opts := range goldenOptionSets {
		fmt.Fprintf(&sb, "== %s xsa=%v readonly=%v\n", id, opts.XSA, opts.ReadOnly)
		sb.WriteString(dumpResult(Analyze(prog, opts)))
	}
	gu := GivesUp(prog)
	keys := make([]string, 0, len(gu))
	for k := range gu {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&sb, "== %s givesUp: %d\n", id, len(keys))
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %s: %v\n", k, gu[k])
	}
	return sb.String()
}

func dumpCorpus(t testing.TB) string {
	var sb strings.Builder
	for _, src := range corpusSources(t) {
		sb.WriteString(dumpProgram(src.id, src.program(t)))
	}
	return sb.String()
}

func TestWriteAnalysisGolden(t *testing.T) {
	if os.Getenv("PSHARP_WRITE_GOLDENS") == "" {
		t.Skip("set PSHARP_WRITE_GOLDENS=1 to re-record " + analysisGoldenPath)
	}
	if err := os.MkdirAll(filepath.Dir(analysisGoldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(analysisGoldenPath, []byte(dumpCorpus(t)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAnalysisGolden requires the analysis to reproduce the recorded file
// byte for byte. It is also the drift guard: a source added to or dropped
// from the corpus changes the "==" headers and fails here until the file is
// deliberately re-recorded.
func TestAnalysisGolden(t *testing.T) {
	want, err := os.ReadFile(analysisGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := dumpCorpus(t)
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
			t.Fatalf("%s:%d diverged from the recorded analysis:\n got %s\nwant %s", analysisGoldenPath, i+1, g, w)
		}
	}
}
